package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/network"
	"repro/internal/types"
)

// codecModes is the 2×2 view-layout × fork-choice matrix every codec
// property is checked across.
var codecModes = []struct {
	name                           string
	perValidator, oracleForkChoice bool
}{
	{"cohort+proto-array", false, false},
	{"cohort+map-oracle", false, true},
	{"per-validator+proto-array", true, false},
	{"per-validator+map-oracle", true, true},
}

// compactedCfg is the compaction-exercising complement of snapshotCfg:
// lossless synchronous links under a permanent partition (the compaction
// gates require DropRate = 0 and GST = Never), with a watermark low
// enough that every view's tree has folded skip segments by the snapshot
// point.
func compactedCfg(perValidator, oracleForkChoice bool) Config {
	return Config{
		Validators: 16, Spec: types.CompressedSpec(1 << 16),
		GST: network.Never, Delay: 1, Seed: 3,
		PartitionOf: halfSplit(16), CompactWatermark: 32,
		PerValidatorViews: perValidator, OracleForkChoice: oracleForkChoice,
	}
}

// encodeSnapshot serializes through the full durable frame and sanity
// checks the declared length.
func encodeSnapshot(t *testing.T, sn *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := sn.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestSnapshotCodecRoundTrip is the codec contract: a decoded snapshot
// restores bit-identically — continuing it reproduces the original
// continuation's per-epoch metrics exactly — and re-encoding it
// reproduces the original bytes (the codec is canonical). Checked across
// the 2×2 view-layout × fork-choice matrix, for both a messaging-rich
// state (link outages, shuffled duties, held pre-GST cross-partition
// traffic, live embargoes) and a mid-leak compacted state (folded skip
// segments in every tree).
func TestSnapshotCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		cfg    func(perValidator, oracleForkChoice bool) Config
		snapAt int
		total  int
		// compacted requires the state to actually carry folded segments,
		// otherwise the case pins nothing.
		compacted bool
	}{
		{"held-traffic", snapshotCfg, 6, 18, false},
		{"compacted", compactedCfg, 15, 27, true},
	}
	for _, tc := range cases {
		for _, mode := range codecModes {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				cfg := tc.cfg(mode.perValidator, mode.oracleForkChoice)
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.RunEpochs(tc.snapAt); err != nil {
					t.Fatal(err)
				}
				if tc.compacted {
					if st := s.Stats(); st.Tree.Folded == 0 {
						t.Fatalf("run not compacted at snapshot point (stats %+v)", st)
					}
				}
				snap := s.Snapshot()
				suffix := runRecorded(t, s, tc.total-tc.snapAt)

				blob := encodeSnapshot(t, snap)
				decoded, err := ReadSnapshot(bytes.NewReader(blob))
				if err != nil {
					t.Fatalf("ReadSnapshot: %v", err)
				}
				if got, want := decoded.Slot(), snap.Slot(); got != want {
					t.Fatalf("decoded slot = %d, want %d", got, want)
				}
				if decoded.Bytes() <= 0 {
					t.Fatalf("decoded snapshot footprint = %d, want > 0", decoded.Bytes())
				}

				// Canonical form: encode(decode(blob)) == blob.
				if reblob := encodeSnapshot(t, decoded); !bytes.Equal(reblob, blob) {
					t.Fatalf("re-encoded snapshot differs: %d vs %d bytes", len(reblob), len(blob))
				}

				// Continuation equivalence: the decoded snapshot's run must
				// match the original's bit-for-bit.
				warm, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := warm.Restore(decoded); err != nil {
					t.Fatalf("Restore(decoded): %v", err)
				}
				replay := runRecorded(t, warm, tc.total-tc.snapAt)
				if !reflect.DeepEqual(replay, suffix) {
					t.Fatalf("decoded snapshot's continuation diverged:\n  decoded:  %+v\n  original: %+v", replay, suffix)
				}
			})
		}
	}
}

// TestSnapshotFrameWrittenByPR13: testdata/snapshot-v2-pr13.frame is the
// snapshot the commit before the detector's arena layout wrote for
// compactedCfg twelve epochs in (past the first prunes). The frame format
// did not move with the layout: this build writes those exact bytes for
// the same run, and reads them back into a snapshot that re-encodes to
// them and continues like the live simulation.
func TestSnapshotFrameWrittenByPR13(t *testing.T) {
	want, err := os.ReadFile("testdata/snapshot-v2-pr13.frame")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(want[4:8]); v != 2 || snapshotVersion != 2 {
		t.Fatalf("checked-in frame is version %d, this build writes %d; both must be 2", v, snapshotVersion)
	}
	cfg := compactedCfg(false, false)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(12); err != nil {
		t.Fatal(err)
	}
	if got := encodeSnapshot(t, s.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("this build's frame for the same run differs from the checked-in one (%d vs %d bytes)", len(got), len(want))
	}
	decoded, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got := encodeSnapshot(t, decoded); !bytes.Equal(got, want) {
		t.Fatalf("decoded frame re-encodes differently (%d vs %d bytes)", len(got), len(want))
	}
	resumed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	if live, replay := runRecorded(t, s, 4), runRecorded(t, resumed, 4); !reflect.DeepEqual(live, replay) {
		t.Fatalf("the decoded frame's continuation diverged:\n  decoded: %+v\n  live:    %+v", replay, live)
	}
}

// reseal makes a frame's header agree with its (edited) payload again, so
// the damage under test is what the payload decoders see, not the
// container's checksum verdict.
func reseal(b []byte) []byte {
	payload := b[20:]
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(payload)))
	sum := fnv.New64a()
	sum.Write(payload)
	binary.LittleEndian.PutUint64(b[12:20], sum.Sum64())
	return b
}

// TestSnapshotCodecRejectsDamage: every damaged form of a valid blob —
// truncation at any layer, a flipped bit in header or payload, a version
// skew (the version 1 frame of earlier builds included), and a correctly
// sealed payload whose vote tables and id columns disagree — fails
// ReadSnapshot with ErrSnapshotCodec; no partially-decoded snapshot
// escapes.
func TestSnapshotCodecRejectsDamage(t *testing.T) {
	s, err := New(snapshotCfg(false, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(4); err != nil {
		t.Fatal(err)
	}
	blob := encodeSnapshot(t, s.Snapshot())

	// Where the first view's attestation pool sits in the frame: an epoch
	// count, then per epoch its number, the table (a length and 120 bytes
	// per value) and the first id column (a length and 4 bytes per id).
	var poolBytes bytes.Buffer
	s.cohorts[0].Node.Pool.EncodeTo(codec.NewWriter(&poolBytes))
	pool := bytes.Index(blob, poolBytes.Bytes())
	if pool < 0 || poolBytes.Len() < 16 {
		t.Fatal("cannot locate the first pool in the frame")
	}
	table := pool + 4 + 8
	values := int(binary.LittleEndian.Uint32(blob[table:]))
	firstID := table + 4 + 120*values + 4
	if values == 0 || firstID+4 > pool+poolBytes.Len() {
		t.Fatalf("first pool epoch holds %d values; layout assumption broken", values)
	}

	// Where the first view's slashing detector sits: the table as above,
	// then a column of history lengths, a column of ids and a column of
	// marks, each behind its length.
	var detBytes bytes.Buffer
	s.cohorts[0].Node.Detector.EncodeTo(codec.NewWriter(&detBytes))
	det := bytes.Index(blob, detBytes.Bytes())
	if det < 0 {
		t.Fatal("cannot locate the first detector in the frame")
	}
	counts := det + 4 + 120*int(binary.LittleEndian.Uint32(blob[det:]))
	nCounts := int(binary.LittleEndian.Uint32(blob[counts:]))
	lastCount := counts + 4*nCounts
	ids := lastCount + 4
	marks := ids + 4 + 4*int(binary.LittleEndian.Uint32(blob[ids:]))
	if nCounts == 0 || int(binary.LittleEndian.Uint32(blob[marks:])) != nCounts || marks+4+nCounts != det+detBytes.Len() {
		t.Fatalf("first detector holds %d histories; layout assumption broken", nCounts)
	}

	damage := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"torn-header", func(b []byte) []byte { return b[:10] }},
		{"torn-payload", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-1] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"version-skew", func(b []byte) []byte { b[4]++; return b }},
		{"v1-header", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], 1); return b }},
		{"out-of-range-id", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[firstID:], uint32(values)+1)
			return reseal(b)
		}},
		// The frame has no spill of its own — lines and spill are how the
		// decoder files what the two columns say. A history claiming more
		// votes than a line holds must not send its overflow past the id
		// column, nor a mark name a validator past the length column.
		{"overflow-history-past-id-column", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[lastCount:], binary.LittleEndian.Uint32(b[lastCount:])+64)
			return reseal(b)
		}},
		{"marks-past-length-column", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[marks:], uint32(nCounts)+1)
			return reseal(b)
		}},
		{"truncated-table", func(b []byte) []byte { return reseal(b[:table+4+120*values-60]) }},
		{"length-lie", func(b []byte) []byte { b[8] ^= 0x80; return b }},
		{"checksum-flip", func(b []byte) []byte { b[12] ^= 0x01; return b }},
		{"payload-bit-flip", func(b []byte) []byte { b[20+len(b)/3] ^= 0x10; return b }},
		{"payload-last-byte", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			bad := d.mut(append([]byte(nil), blob...))
			sn, err := ReadSnapshot(bytes.NewReader(bad))
			if err == nil {
				t.Fatal("ReadSnapshot accepted damaged input")
			}
			if !errors.Is(err, ErrSnapshotCodec) {
				t.Fatalf("error %v does not wrap ErrSnapshotCodec", err)
			}
			if sn != nil {
				t.Fatal("damaged read returned a non-nil snapshot")
			}
		})
	}
}

// TestSnapshotCodecAdoptedSnapshot: a snapshot whose state was moved out
// by Adopt refuses to encode rather than writing an empty shell.
func TestSnapshotCodecAdoptedSnapshot(t *testing.T) {
	cfg := snapshotCfg(false, false)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(2); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	shell, err := NewShell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := shell.Adopt(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTo accepted an adopted (moved-out) snapshot")
	}
}

package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attestation"
	"repro/internal/blocktree"
	"repro/internal/codec"
	"repro/internal/network"
	"repro/internal/types"
)

var writeFrame = flag.Bool("write-frame", false,
	"rewrite the checked-in frames of TestSnapshotFrameFixture and TestHeldTrafficFrameFixture from their runs")

// compactedCfg is the compaction-exercising complement of snapshotCfg:
// lossless synchronous links under a permanent partition (the compaction
// gates require DropRate = 0 and GST = Never), with a watermark low
// enough that every view's tree has folded skip segments by the snapshot
// point.
func compactedCfg() Config {
	return Config{
		Validators: 16, Spec: types.CompressedSpec(1 << 16),
		GST: network.Never, Delay: 1, Seed: 3,
		PartitionOf: halfSplit(16), CompactWatermark: 32,
	}
}

// encodeSnapshot serializes through the full durable frame and sanity
// checks the declared length.
func encodeSnapshot(t testing.TB, sn *Snapshot) []byte {
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
// reproduces the original bytes (the codec is canonical). Checked for both
// view layouts (a per-validator frame holds many cohorts), for both a
// messaging-rich state (link outages, shuffled duties, held pre-GST
// cross-partition traffic, live embargoes) and a mid-leak compacted state
// (folded skip segments in every tree). Only the proto-array has a durable
// form: a snapshot of a simulation on the map-based reference fork choice
// fails the write, so no frame exists that only a read would reject.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		cfg    func() Config
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
		for _, mode := range ReferenceModes {
			t.Run(tc.name+"/"+mode.Name, func(t *testing.T) {
				cfg := mode.Config(tc.cfg())
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if mode.MapForkChoice {
					if _, err := s.Snapshot().WriteTo(&bytes.Buffer{}); !errors.Is(err, ErrSnapshotCodec) {
						t.Fatalf("WriteTo over the map engine = %v, want an error wrapping ErrSnapshotCodec", err)
					}
					return
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
				if got, want := decoded.slot, snap.slot; got != want {
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

// checkOldFrameRejected reads a checked-in frame of an earlier format
// version: a build that met the file in an old store directory must read it
// as a version miss — never as a payload — and the caller runs cold
// (internal/engine's TestSweepCheckpointCorruptColdStart resumes over these
// very files).
func checkOldFrameRejected(t *testing.T, path string, version uint32) {
	t.Helper()
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(old[4:8]); v != version || snapshotVersion == version {
		t.Fatalf("checked-in frame is version %d, this build writes %d; the frame must be %d and the build not", v, snapshotVersion, version)
	}
	sn, err := ReadSnapshot(bytes.NewReader(old))
	if sn != nil || !errors.Is(err, ErrSnapshotCodec) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
		t.Fatalf("ReadSnapshot of a version %d frame = %v, %v; want nil and a version error wrapping ErrSnapshotCodec", version, sn, err)
	}
}

// TestSnapshotFrameWrittenByPR13: testdata/snapshot-v2-pr13.frame is the
// version 2 snapshot PR 13 wrote for compactedCfg twelve epochs in (past
// the first prunes). Version 3 dropped the slashing detector's copy of the
// votes from the frame.
func TestSnapshotFrameWrittenByPR13(t *testing.T) {
	checkOldFrameRejected(t, "testdata/snapshot-v2-pr13.frame", 2)
}

// TestSnapshotFrameWrittenByPR16: testdata/snapshot-v3-pr16.frame is the
// version 3 snapshot PR 16 wrote for the same run. Version 4 dropped each
// node's second registry from the frame.
func TestSnapshotFrameWrittenByPR16(t *testing.T) {
	checkOldFrameRejected(t, "testdata/snapshot-v3-pr16.frame", 3)
}

// TestSnapshotFrameWrittenByPR18: testdata/snapshot-v4-pr18.frame is the
// version 4 snapshot of the same run. Version 5 dropped each node's
// validator id and slashing-evidence history from the frame.
func TestSnapshotFrameWrittenByPR18(t *testing.T) {
	checkOldFrameRejected(t, "testdata/snapshot-v4-pr18.frame", 4)
}

// checkFrameFixture holds got, a frame this build wrote, to the checked-in
// frame at path: the fixture is of this build's version and has the same
// bytes, and it decodes into a snapshot that re-encodes to them. It
// returns that snapshot. (-write-frame rewrites the file first.)
func checkFrameFixture(t *testing.T, path string, got []byte) *Snapshot {
	t.Helper()
	if *writeFrame {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(want[4:8]); v != snapshotVersion {
		t.Fatalf("checked-in frame is version %d, this build writes %d", v, snapshotVersion)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("this build's frame for the same run differs from the checked-in one (%d vs %d bytes)", len(got), len(want))
	}
	decoded, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got := encodeSnapshot(t, decoded); !bytes.Equal(got, want) {
		t.Fatalf("decoded frame re-encodes differently (%d vs %d bytes)", len(got), len(want))
	}
	return decoded
}

// TestSnapshotFrameFixture: testdata/snapshot-v7.frame is the snapshot the
// build that introduced version 7 wrote for compactedCfg twelve epochs in.
// While the format stands, this build writes those exact bytes for the
// same run, and reads them back into a snapshot that re-encodes to them
// and continues like the live simulation. A change that moves the format
// bumps the version, checks in a frame of its own, and turns this file's
// check into a version miss like the ones above. The version 5 frame of
// the same run, which still carried each node's second spec, is one, and
// so is the version 6 frame, which did not end in adversary state.
func TestSnapshotFrameFixture(t *testing.T) {
	checkOldFrameRejected(t, "testdata/snapshot-v5.frame", 5)
	checkOldFrameRejected(t, "testdata/snapshot-v6.frame", 6)
	cfg := compactedCfg()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(12); err != nil {
		t.Fatal(err)
	}
	decoded := checkFrameFixture(t, "testdata/snapshot-v7.frame", encodeSnapshot(t, s.Snapshot()))
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

// TestHeldTrafficFrameFixture: testdata/snapshot-v7-held-traffic.frame is
// the snapshot of a sim/gst population three epochs into a partition that
// heals at epoch 30. Its held cross-partition traffic carries all three
// message tags: blocks, batches (two of them from buckets whose proposer
// attested alone) and single attestations. This build writes the same
// bytes for the same run, and decodes them into a snapshot that re-encodes
// to them and continues like the live simulation. The version 4 frame of
// the same run, written by the build before messages became values, and
// its version 5 and 6 frames are version misses.
func TestHeldTrafficFrameFixture(t *testing.T) {
	checkOldFrameRejected(t, "testdata/snapshot-v4-held-traffic.frame", 4)
	checkOldFrameRejected(t, "testdata/snapshot-v5-held-traffic.frame", 5)
	checkOldFrameRejected(t, "testdata/snapshot-v6-held-traffic.frame", 6)
	cfg := heldTrafficCfg()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(3); err != nil {
		t.Fatal(err)
	}
	decoded := checkFrameFixture(t, "testdata/snapshot-v7-held-traffic.frame", encodeSnapshot(t, s.Snapshot()))
	var kinds [4]int
	held := decoded.net.Clone()
	for _, c := range s.Cohorts() {
		for _, m := range held.Deliveries(network.NodeID(c.Index), cfg.GST+cfg.Delay) {
			kinds[m.Kind]++
		}
	}
	if kinds[BlockMessage] == 0 || kinds[AttestationMessage] == 0 || kinds[BatchMessage] == 0 {
		t.Fatalf("held traffic by kind %v: the frame does not carry every tag", kinds)
	}
	resumed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	if live, replay := runRecorded(t, s, 30), runRecorded(t, resumed, 30); !reflect.DeepEqual(live, replay) {
		t.Fatalf("the decoded frame's continuation diverged:\n  decoded: %+v\n  live:    %+v", replay, live)
	}
}

// heldTrafficCfg is the run of testdata/snapshot-v7-held-traffic.frame: a
// sim/gst population whose halves heal at epoch 30.
func heldTrafficCfg() Config {
	return Config{
		Validators: 96, Spec: types.CompressedSpec(1 << 16),
		GST: 30 * 32, Delay: 1, Seed: 2, PartitionOf: halfSplit(96),
	}
}

// usedSimulations are runs whose simulations a frame is loaded into: one
// larger than every frame fixture's, with lossy links and held traffic; a
// smaller one of a single view; and one of another layout, three
// partitions and a Byzantine cohort, that healed, finalized and pruned its
// trees. Each is stepped the given epochs.
var usedSimulations = []struct {
	name   string
	cfg    Config
	epochs int
}{
	{"larger", Config{
		Validators: 160, Spec: types.CompressedSpec(1 << 16), GST: 40 * 32, Delay: 2,
		DropRate: 0.3, Seed: 5, ShuffledDuties: true, PartitionOf: halfSplit(160),
	}, 10},
	{"smaller", Config{Validators: 6, Spec: types.CompressedSpec(1 << 16), GST: network.Never, Delay: 1, Seed: 7}, 3},
	{"other-layout", Config{
		Validators: 48, Spec: types.CompressedSpec(1 << 16), GST: 6 * 32, Delay: 1, Seed: 11,
		Byzantine:   []types.ValidatorIndex{0, 5},
		PartitionOf: func(v types.ValidatorIndex) int { return int(v) % 3 },
	}, 14},
}

// usedSimulation returns a simulation of the i-th usedSimulations run,
// each of whose views then holds a block its parent never reached.
func usedSimulation(t testing.TB, i int) *Simulation {
	t.Helper()
	s, err := New(usedSimulations[i].cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(usedSimulations[i].epochs); err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Cohorts() {
		c.Node.ReceiveBlock(blocktree.Block{Slot: s.Slot() + 1, Root: types.RootFromUint64(1 << 40), Parent: types.RootFromUint64(1 << 41)})
	}
	return s
}

// TestLoadIntoUsedSimulation is the differential check of decoding in
// place: each checked-in frame, loaded (Load) into a simulation another run
// left behind, re-encodes to the frame's own bytes and continues exactly as
// the live run the frame was taken from, epoch by epoch and in the frame of
// its last state.
func TestLoadIntoUsedSimulation(t *testing.T) {
	for _, fx := range []struct {
		path          string
		cfg           Config
		epochs, after int
	}{
		{"testdata/snapshot-v7.frame", compactedCfg(), 12, 4},
		{"testdata/snapshot-v7-held-traffic.frame", heldTrafficCfg(), 3, 30},
	} {
		frame, err := os.ReadFile(fx.path)
		if err != nil {
			t.Fatal(err)
		}
		live, err := New(fx.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := live.RunEpochs(fx.epochs); err != nil {
			t.Fatal(err)
		}
		want := runRecorded(t, live, fx.after)
		wantEnd := encodeSnapshot(t, live.Snapshot())
		for i, used := range usedSimulations {
			s := usedSimulation(t, i)
			if err := s.Load(fx.cfg, bytes.NewReader(frame)); err != nil {
				t.Fatalf("%s into %s: %v", fx.path, used.name, err)
			}
			if got := encodeSnapshot(t, s.Snapshot()); !bytes.Equal(got, frame) {
				t.Errorf("%s into %s re-encodes differently (%d vs %d bytes)", fx.path, used.name, len(got), len(frame))
				continue
			}
			if got := runRecorded(t, s, fx.after); !reflect.DeepEqual(got, want) {
				t.Errorf("%s into %s diverged from the live run:\n  loaded: %+v\n  live:   %+v", fx.path, used.name, got, want)
			} else if end := encodeSnapshot(t, s.Snapshot()); !bytes.Equal(end, wantEnd) {
				t.Errorf("%s into %s ends %d epochs on in another state than the live run", fx.path, used.name, fx.after)
			}
		}
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
// skew (the version 1 to 6 frames of earlier builds included), and a
// correctly sealed payload whose vote tables, id columns, marks or registry
// are not ones this build writes — fails ReadSnapshot with
// ErrSnapshotCodec; no partially-decoded snapshot escapes.
func TestSnapshotCodecRejectsDamage(t *testing.T) {
	s, err := New(snapshotCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(4); err != nil {
		t.Fatal(err)
	}
	// The run is honest; show the first view one double vote, so its
	// detector has a mark to damage.
	const offender = 3
	first := s.cohorts[0].Node
	vote, err := first.AttestationData(s.Slot())
	if err != nil {
		t.Fatal(err)
	}
	for _, head := range []uint64{901, 902} {
		vote.Head = types.RootFromUint64(head)
		first.ReceiveAttestation(attestation.Attestation{Validator: offender, Data: vote})
	}
	if !first.Detector.Slashed(offender) {
		t.Fatal("the planted double vote was not detected")
	}
	blob := encodeSnapshot(t, s.Snapshot())

	// Where the first view's attestation pool sits in the frame: an epoch
	// count, then per epoch its number, the table (a length and 120 bytes
	// per value) and the first id column (a length and 4 bytes per id).
	var poolBytes bytes.Buffer
	first.Pool.Walk(codec.NewEncoder(&poolBytes))
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

	// Behind the pool, the first view's slashing detector — a length and one
	// mark byte per validator up to the offender — and then its registry: a
	// length and, per validator, stake, score, a status byte and exit epoch.
	marks := pool + poolBytes.Len()
	lastMark := marks + 4 + offender
	registry := lastMark + 1
	if binary.LittleEndian.Uint32(blob[marks:]) != offender+1 || blob[lastMark] != 1 ||
		int(binary.LittleEndian.Uint32(blob[registry:])) != s.Cfg.Validators {
		t.Fatal("detector and registry are not where the layout assumption puts them")
	}
	firstStatus := registry + 4 + 16

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
		{"v2-header", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], 2); return b }},
		{"v3-header", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], 3); return b }},
		{"v4-header", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], 4); return b }},
		{"v5-header", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], 5); return b }},
		{"v6-header", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], 6); return b }},
		{"out-of-range-id", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[firstID:], uint32(values)+1)
			return reseal(b)
		}},
		// What is left of a detector is a column of marks: a byte that is
		// not a mark, or a column that ends unmarked, is not one it wrote.
		{"mark-out-of-range", func(b []byte) []byte { b[lastMark] = 2; return reseal(b) }},
		{"marks-end-unmarked", func(b []byte) []byte { b[lastMark] = 0; return reseal(b) }},
		{"status-out-of-range", func(b []byte) []byte { b[firstStatus] = 3; return reseal(b) }},
		// A node carries one registry; a frame cut inside it must not decode
		// as a shorter one.
		{"truncated-registry", func(b []byte) []byte { return reseal(b[:registry+4+25*(s.Cfg.Validators/2)]) }},
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

// TestSnapshotCodecRejectsMisfitDutyViews: a checksum-valid frame whose
// duty views do not fit its simulation — a validator acting from a view the
// snapshot does not hold, or fewer views than validators — is refused by
// ReadSnapshot. Accepted, it restores, and the next epoch indexes past the
// simulation's views.
func TestSnapshotCodecRejectsMisfitDutyViews(t *testing.T) {
	s, err := New(snapshotCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		misfit func(sn *Snapshot)
	}{
		{"view 99", func(sn *Snapshot) { sn.dutyView[5] = 99 }},
		{"view -1", func(sn *Snapshot) { sn.dutyView[5] = -1 }},
		{"10 of 16 validators", func(sn *Snapshot) { sn.dutyView = sn.dutyView[:10] }},
	} {
		sn := s.Snapshot()
		tc.misfit(sn)
		if got, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, sn))); got != nil || !errors.Is(err, ErrSnapshotCodec) {
			t.Errorf("%s: ReadSnapshot = %v, %v; want nil and ErrSnapshotCodec", tc.name, got != nil, err)
		}
	}
}

// TestSnapshotCodecAdoptedSnapshot: a snapshot whose state was moved out
// by Adopt refuses to encode rather than writing an empty shell.
func TestSnapshotCodecAdoptedSnapshot(t *testing.T) {
	cfg := snapshotCfg()
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

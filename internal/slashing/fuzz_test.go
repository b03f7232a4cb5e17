package slashing

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/attestation"
	"repro/internal/codec"
	"repro/internal/types"
)

var writeFuzzSeeds = flag.Bool("write-fuzz-seeds", false,
	"rewrite the seeds of FuzzDecodeDetector's checked-in corpus that this package builds (long-single-history, spill-then-prune)")

// honestVote is epoch e's vote in a chain where no two votes conflict.
func honestVote(e uint64) attestation.Data { return data(e*32, e, e-1, e-1, e, e) }

// detectorSeeds builds the two corpus seeds that are about the arena: one
// validator among thousands with a history far past its line — the decoder
// must spill it, not widen every line to fit, or it breaks the fuzz
// target's allocation bound — and histories that overflowed, were pruned
// back into their lines and overflowed again.
func detectorSeeds() map[string][]byte {
	long := NewDetector()
	long.Observe(attestation.Attestation{Validator: 8191, Data: honestVote(1)})
	for e := uint64(1); e <= 160; e++ {
		long.Observe(attestation.Attestation{Validator: 4000, Data: honestVote(e)})
	}

	pruned := NewDetector()
	for e := uint64(1); e <= 40; e++ {
		for v := types.ValidatorIndex(0); v < 6; v++ {
			if e%(uint64(v)+1) == 0 {
				pruned.Observe(attestation.Attestation{Validator: v, Data: honestVote(e)})
			}
		}
	}
	pruned.Observe(attestation.Attestation{Validator: 0, Data: data(30*32, 999, 29, 29, 30, 999)})
	pruned.Prune(24)
	for e := uint64(41); e <= 44; e++ {
		pruned.Observe(attestation.Attestation{Validator: 0, Data: honestVote(e)})
		pruned.Observe(attestation.Attestation{Validator: 1, Data: honestVote(e)})
	}

	seeds := map[string][]byte{}
	for name, d := range map[string]*Detector{"long-single-history": long, "spill-then-prune": pruned} {
		var frame bytes.Buffer
		d.EncodeTo(codec.NewWriter(&frame))
		seeds[name] = frame.Bytes()
	}
	return seeds
}

// TestDetectorFuzzSeedsAreCurrent: the checked-in seeds are the frames
// detectorSeeds builds today — they are real detector states, and the frame
// format has not drifted under them. -write-fuzz-seeds rewrites them.
func TestDetectorFuzzSeedsAreCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeDetector")
	for name, frame := range detectorSeeds() {
		body := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame))
		path := filepath.Join(dir, name)
		if *writeFuzzSeeds {
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		have, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(have, body) {
			t.Errorf("%s is not the frame this package builds; rerun with -write-fuzz-seeds if the change is meant", path)
		}
	}
}

// FuzzDecodeDetector: whatever bytes a detector is decoded from — a store
// entry is outside input — DecodeDetector does not panic, allocates in
// proportion to the input and not to a length the input claims, and
// returns either the codec's corruption error or a detector that
// re-encodes to exactly the bytes it was read from. The checked-in corpus
// (testdata/fuzz/FuzzDecodeDetector) holds detectors of the randomized
// stream of internal/beacon's TestInternedVotesMatchReference (`go test
// ./internal/beacon -run TestInternedVotesMatchReference
// -write-fuzz-seeds` rewrites them) and the two arena seeds of
// detectorSeeds above.
func FuzzDecodeDetector(f *testing.F) {
	d := NewDetector()
	d.Observe(attestation.Attestation{Validator: 1, Data: data(33, 1, 0, 0, 1, 10)})
	d.Observe(attestation.Attestation{Validator: 1, Data: data(33, 2, 0, 0, 1, 20)})
	d.Observe(attestation.Attestation{Validator: 3, Data: data(70, 3, 1, 10, 2, 30)})
	var seed bytes.Buffer
	d.EncodeTo(codec.NewWriter(&seed))
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, frame []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := codec.NewReader(bytes.NewReader(frame))
		d := DecodeDetector(r)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32*uint64(len(frame))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(frame), grew)
		}
		if d == nil {
			if !errors.Is(r.Err(), codec.ErrCorrupt) {
				t.Fatalf("rejected with %v, want codec.ErrCorrupt", r.Err())
			}
			return
		}
		var out bytes.Buffer
		d.EncodeTo(codec.NewWriter(&out))
		if out.Len() > len(frame) || !bytes.Equal(out.Bytes(), frame[:out.Len()]) {
			t.Fatalf("accepted %d bytes that re-encode differently (%d bytes)", len(frame), out.Len())
		}
	})
}

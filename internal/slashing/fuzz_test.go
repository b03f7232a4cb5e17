package slashing

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/attestation"
	"repro/internal/codec"
)

// encodeDetector returns the bytes d's walk writes.
func encodeDetector(d *Detector) []byte {
	var b bytes.Buffer
	d.Walk(codec.NewEncoder(&b))
	return b.Bytes()
}

// FuzzDecodeDetector: whatever bytes a detector is decoded from — a store
// entry is outside input — its walk does not panic, allocates in
// proportion to the input and not to a length the input claims, and
// returns either the codec's corruption error or a detector that
// re-encodes to exactly the bytes it was read from. What is left of a
// detector to decode is its column of marks. The checked-in corpus
// (testdata/fuzz/FuzzDecodeDetector) holds the detectors of the randomized
// stream of internal/beacon's TestInternedVotesMatchReference (`go test
// ./internal/beacon -run TestInternedVotesMatchReference
// -write-fuzz-seeds` rewrites them).
func FuzzDecodeDetector(f *testing.F) {
	d := newObserver()
	d.Observe(attestation.Attestation{Validator: 1, Data: data(33, 1, 0, 0, 1, 10)})
	d.Observe(attestation.Attestation{Validator: 1, Data: data(33, 2, 0, 0, 1, 20)})
	d.Observe(attestation.Attestation{Validator: 3, Data: data(70, 3, 1, 10, 2, 30)})
	f.Add(encodeDetector(d.Detector))

	f.Fuzz(func(t *testing.T, frame []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, c := new(Detector), codec.NewDecoder(bytes.NewReader(frame))
		d.Walk(c)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32*uint64(len(frame))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(frame), grew)
		}
		if c.Err() != nil {
			if !errors.Is(c.Err(), codec.ErrCorrupt) {
				t.Fatalf("rejected with %v, want codec.ErrCorrupt", c.Err())
			}
			return
		}
		if out := encodeDetector(d); len(out) > len(frame) || !bytes.Equal(out, frame[:len(out)]) {
			t.Fatalf("accepted %d bytes that re-encode differently (%d bytes)", len(frame), len(out))
		}
	})
}

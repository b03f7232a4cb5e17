package slashing

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/attestation"
	"repro/internal/codec"
)

// FuzzDecodeDetector: whatever bytes a detector is decoded from — a store
// entry is outside input — DecodeDetector does not panic, allocates in
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

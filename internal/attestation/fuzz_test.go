package attestation

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/codec"
)

// encodePool returns the bytes p's walk writes.
func encodePool(p *Pool) []byte {
	var b bytes.Buffer
	p.Walk(codec.NewEncoder(&b))
	return b.Bytes()
}

// FuzzDecodePool: whatever bytes a pool is decoded from — a store entry is
// outside input — its walk does not panic, allocates in proportion to the
// input and not to a length the input claims, and returns either the
// codec's corruption error or a pool that re-encodes to exactly the bytes
// it was read from and keeps what the slashing detector leans on: retained
// epochs strictly ascending, and each epoch's source range the one its
// table implies — rebuilt on decode, there being none on the wire to
// trust. The checked-in corpus (testdata/fuzz/FuzzDecodePool)
// holds pools of the randomized stream of internal/beacon's
// TestInternedVotesMatchReference; `go test ./internal/beacon
// -run TestInternedVotesMatchReference -write-fuzz-seeds` rewrites it.
func FuzzDecodePool(f *testing.F) {
	p := new(Pool)
	p.Add(att(1, 33, 5, cp(0, 0), cp(1, 5)))
	p.Add(att(1, 33, 6, cp(0, 0), cp(1, 6)))
	p.Add(att(1, 34, 6, cp(0, 0), cp(1, 6)))
	p.Add(att(4, 70, 9, cp(1, 5), cp(2, 9)))
	f.Add(encodePool(p))

	f.Fuzz(func(t *testing.T, frame []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, c := new(Pool), codec.NewDecoder(bytes.NewReader(frame))
		p.Walk(c)
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
		for i, ev := range p.Retained() {
			if i > 0 && ev.Epoch() <= p.Retained()[i-1].Epoch() {
				t.Fatalf("accepted epoch %d after %d", ev.Epoch(), p.Retained()[i-1].Epoch())
			}
			if len(ev.Values()) == 0 {
				continue
			}
			lo, hi := ev.Values()[0].Source.Epoch, ev.Values()[0].Source.Epoch
			for _, d := range ev.Values() {
				lo, hi = min(lo, d.Source.Epoch), max(hi, d.Source.Epoch)
			}
			if gotLo, gotHi := ev.SourceRange(); gotLo != lo || gotHi != hi {
				t.Fatalf("epoch %d: source range %d..%d, its table spans %d..%d", ev.Epoch(), gotLo, gotHi, lo, hi)
			}
		}
		if out := encodePool(p); len(out) > len(frame) || !bytes.Equal(out, frame[:len(out)]) {
			t.Fatalf("accepted %d bytes that re-encode differently (%d bytes)", len(frame), len(out))
		}
	})
}

package slashing

import (
	"repro/internal/attestation"
	"repro/internal/codec"
	"repro/internal/types"
)

// EncodeTo serializes the detector for the durable snapshot codec: the
// already-reported marks, one byte per validator up to the highest one
// reported. The votes it judges are the pool's, and travel with the pool.
func (d *Detector) EncodeTo(w *codec.Writer) {
	w.Len(len(d.slashed))
	for _, s := range d.slashed {
		w.Bool(s)
	}
}

// DecodeDetector reconstructs a detector serialized by EncodeTo. A mark
// that is neither 0 nor 1, or a column that does not end in a mark —
// EncodeTo writes neither — is rejected as corrupt. The column grows as its
// bytes actually arrive, so a corrupt length prefix fails at the end of the
// input instead of allocating what it claims.
func DecodeDetector(r *codec.Reader) *Detector {
	d := NewDetector()
	n := r.Len()
	if r.Err() != nil {
		return nil
	}
	d.slashed = make([]bool, 0, min(n, 1024))
	for len(d.slashed) < n {
		mark := r.Byte()
		if r.Err() != nil {
			return nil
		}
		if mark > 1 {
			r.Corrupt("slashing: mark byte %d", mark)
			return nil
		}
		d.slashed = append(d.slashed, mark == 1)
	}
	if n > 0 && !d.slashed[n-1] {
		r.Corrupt("slashing: mark column ends unmarked")
		return nil
	}
	return d
}

// EncodeEvidence serializes one piece of slashing evidence.
func EncodeEvidence(w *codec.Writer, e Evidence) {
	w.U64(uint64(e.Validator))
	w.Int(int(e.Kind))
	attestation.EncodeData(w, e.First)
	attestation.EncodeData(w, e.Second)
}

// DecodeEvidence reads one piece of slashing evidence.
func DecodeEvidence(r *codec.Reader) Evidence {
	var e Evidence
	e.Validator = types.ValidatorIndex(r.U64())
	e.Kind = Kind(r.Int())
	e.First = attestation.DecodeData(r)
	e.Second = attestation.DecodeData(r)
	return e
}

package slashing

import (
	"repro/internal/attestation"
	"repro/internal/codec"
	"repro/internal/types"
)

// EncodeTo serializes the detector for the durable snapshot codec: the
// value table, the per-validator histories as a column of lengths plus one
// flat column of ids (arrival order preserved — it decides which earlier
// vote an offense is proved against), and the already-reported marks.
func (d *Detector) EncodeTo(w *codec.Writer) {
	attestation.EncodeTable(w, d.table)
	counts := make([]uint32, len(d.history))
	total := 0
	for v, ids := range d.history {
		counts[v] = uint32(len(ids))
		total += len(ids)
	}
	flat := make([]uint32, 0, total)
	for _, ids := range d.history {
		flat = append(flat, ids...)
	}
	w.U32s(counts)
	w.U32s(flat)
	w.Len(len(d.slashed))
	for _, s := range d.slashed {
		w.Bool(s)
	}
}

// DecodeDetector reconstructs a detector serialized by EncodeTo. An id
// past the table, history lengths that do not add up to the id column, or
// a mark column of another length than the histories is rejected as
// corrupt.
func DecodeDetector(r *codec.Reader) *Detector {
	d := NewDetector()
	d.table = attestation.DecodeTable(r)
	counts := r.U32s()
	flat := r.U32s()
	ns := r.Len()
	if r.Err() != nil {
		return nil
	}
	total := 0
	for _, n := range counts {
		total += int(n)
	}
	if total != len(flat) || ns != len(counts) {
		r.Corrupt("slashing: %d history lengths summing to %d over %d ids and %d marks", len(counts), total, len(flat), ns)
		return nil
	}
	for _, id := range flat {
		if int(id) >= len(d.table) {
			r.Corrupt("slashing: vote id %d past a table of %d", id, len(d.table))
			return nil
		}
	}
	// The decoded id column is the histories' backing array; each history
	// is capped at its length, so an append reallocates instead of
	// clobbering its neighbor.
	d.history = make([][]uint32, len(counts))
	for v, n := range counts {
		if n > 0 {
			d.history[v], flat = flat[:n:n], flat[n:]
		}
	}
	d.slashed = make([]bool, ns)
	for i := range d.slashed {
		mark := r.Byte()
		if mark > 1 {
			r.Corrupt("slashing: mark byte %d", mark)
		}
		d.slashed[i] = mark == 1
	}
	if r.Err() != nil {
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

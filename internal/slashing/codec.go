package slashing

import (
	"repro/internal/attestation"
	"repro/internal/codec"
	"repro/internal/types"
)

// EncodeTo serializes the detector for the durable snapshot codec: the
// value table, the per-validator histories as a column of lengths plus one
// flat validator-major column of ids (arrival order preserved — it decides
// which earlier vote an offense is proved against), and the
// already-reported marks. Lines, their order and the spill are the
// in-memory layout only; the frame does not show them.
func (d *Detector) EncodeTo(w *codec.Writer) {
	attestation.EncodeTable(w, d.table)
	counts := make([]uint32, len(d.slashed))
	// next[v] is where validator v's next id lands in the flat column.
	next := make([]uint32, len(d.slashed))
	total := uint32(0)
	for v, at := range d.lineOf {
		if at != 0 {
			counts[v] = d.lines[(at-1)*lineWords]
		}
		next[v] = total
		total += counts[v]
	}
	flat := make([]uint32, total)
	for v, at := range d.lineOf {
		if at != 0 {
			line := d.lines[(at-1)*lineWords:][:lineWords]
			next[v] += uint32(copy(flat[next[v]:], line[1:1+min(line[0], lineIDs)]))
		}
	}
	for _, o := range d.spill {
		flat[next[o.validator]] = o.id
		next[o.validator]++
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
// corrupt. Every validator with a history gets the same fixed line whatever
// the frame claims; a history longer than a line goes to the spill, so the
// detector stays proportional to the frame however the ids are spread.
func DecodeDetector(r *codec.Reader) *Detector {
	d := NewDetector()
	d.table = attestation.DecodeTable(r)
	counts := r.U32s()
	flat := r.U32s()
	ns := r.Len()
	if r.Err() != nil {
		return nil
	}
	total, voted, spilled := 0, 0, 0
	for _, n := range counts {
		total += int(n)
		if n > 0 {
			voted++
		}
		if n > lineIDs {
			spilled += int(n) - lineIDs
		}
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
	d.lines = make([]uint32, 0, voted*lineWords)
	d.lineOf = make([]uint32, len(counts))
	d.spill = make([]overflow, 0, spilled)
	for v, n := range counts {
		if n == 0 {
			continue
		}
		line := d.line(uint32(v))
		for _, id := range flat[:n] {
			d.push(line, uint32(v), id)
		}
		flat = flat[n:]
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

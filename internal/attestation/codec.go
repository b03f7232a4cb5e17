package attestation

import (
	"repro/internal/codec"
	"repro/internal/types"
)

// EncodeData serializes one attestation data value.
func EncodeData(w *codec.Writer, d Data) {
	w.U64(uint64(d.Slot))
	w.Raw(d.Head[:])
	w.U64(uint64(d.Source.Epoch))
	w.Raw(d.Source.Root[:])
	w.U64(uint64(d.Target.Epoch))
	w.Raw(d.Target.Root[:])
}

// DecodeData reads one attestation data value.
func DecodeData(r *codec.Reader) Data {
	var d Data
	d.Slot = types.Slot(r.U64())
	r.Raw(d.Head[:])
	d.Source.Epoch = types.Epoch(r.U64())
	r.Raw(d.Source.Root[:])
	d.Target.Epoch = types.Epoch(r.U64())
	r.Raw(d.Target.Root[:])
	return d
}

// EncodeTable serializes a table of distinct data values — the part of a
// pool epoch or a slashing detector that ids index.
func EncodeTable(w *codec.Writer, table []Data) {
	w.Len(len(table))
	for _, d := range table {
		EncodeData(w, d)
	}
}

// DecodeTable reads a table written by EncodeTable. The table grows as its
// entries actually arrive, so a corrupt length prefix fails at the end of
// the input instead of allocating what it claims.
func DecodeTable(r *codec.Reader) []Data {
	n := r.Len()
	if r.Err() != nil || n == 0 {
		return nil
	}
	table := make([]Data, 0, min(n, 64))
	for len(table) < n {
		d := DecodeData(r)
		if r.Err() != nil {
			return nil
		}
		table = append(table, d)
	}
	return table
}

// EncodeTo serializes the pool for the durable snapshot codec: target
// epochs in ascending order, each as its number, its value table and its
// id columns.
func (p *Pool) EncodeTo(w *codec.Writer) {
	w.Len(len(p.epochs))
	for _, ev := range p.epochs {
		ev.encodeTo(w)
	}
}

// encodeTo writes the epoch, the table and the columns, each column cut
// after its last vote: how far past that a column has been sized is an
// allocation choice, not state (first-seen order of the table and arrival
// order of the spill are state — dedup, VotesForEpoch and the slashing
// detector observe them).
func (ev *EpochVotes) encodeTo(w *codec.Writer) {
	w.U64(uint64(ev.epoch))
	EncodeTable(w, ev.table)
	w.U32s(ev.first[:ev.voted])
	n := len(ev.second)
	for n > 0 && ev.second[n-1] == 0 {
		n--
	}
	w.U32s(ev.second[:n])
	w.Len(len(ev.spill))
	for _, sp := range ev.spill {
		w.U64(uint64(sp.validator))
		w.U32(sp.id)
	}
}

// DecodePool reconstructs a pool serialized by EncodeTo. Anything EncodeTo
// cannot have written — epochs out of order, a table entry of another
// epoch, an id past its table, a column ending in a non-vote, a second
// vote without a first, a spill entry without a second — is rejected as
// corrupt, so a decoded pool re-encodes to the bytes it came from.
func DecodePool(r *codec.Reader) *Pool {
	p := NewPool()
	ne := r.Len()
	if r.Err() != nil {
		return nil
	}
	for i := 0; i < ne; i++ {
		ev := decodeEpochVotes(r)
		if ev == nil {
			return nil
		}
		if i > 0 && ev.epoch <= p.epochs[i-1].epoch {
			r.Corrupt("attestation: pool epoch %d after %d", ev.epoch, p.epochs[i-1].epoch)
			return nil
		}
		p.epochs = append(p.epochs, ev)
		p.width = max(p.width, len(ev.first))
	}
	return p
}

// decodeEpochVotes reads one epoch written by encodeTo. The source range is
// rebuilt from the table, exactly as interning built it.
func decodeEpochVotes(r *codec.Reader) *EpochVotes {
	ev := &EpochVotes{epoch: types.Epoch(r.U64()), table: DecodeTable(r)}
	for i, d := range ev.table {
		if d.Target.Epoch != ev.epoch {
			r.Corrupt("attestation: vote for target epoch %d filed under %d", d.Target.Epoch, ev.epoch)
			return nil
		}
		ev.noteSource(i)
	}
	ev.first = r.U32s()
	ev.voted = len(ev.first) // encodeTo cuts the column after its last vote
	second := r.U32s()
	ns := r.Len()
	if r.Err() != nil {
		return nil
	}
	ids := uint32(len(ev.table))
	if !canonicalColumn(ev.first, ids) || !canonicalColumn(second, ids) || len(second) > len(ev.first) {
		r.Corrupt("attestation: malformed id column")
		return nil
	}
	if len(second) > 0 {
		ev.second = make([]uint32, len(ev.first))
		copy(ev.second, second)
	}
	for v, id := range second {
		if id != 0 && ev.first[v] == 0 {
			r.Corrupt("attestation: validator %d has a second vote and no first", v)
			return nil
		}
	}
	for i := 0; i < ns; i++ {
		sp := spillVote{validator: types.ValidatorIndex(r.U64()), id: r.U32()}
		if r.Err() != nil {
			return nil
		}
		if sp.id == 0 || sp.id > ids || sp.validator >= types.ValidatorIndex(len(second)) || second[sp.validator] == 0 {
			r.Corrupt("attestation: malformed spill entry %d", i)
			return nil
		}
		ev.spill = append(ev.spill, sp)
	}
	return ev
}

// canonicalColumn reports whether col could have been written by encodeTo
// over a table of n values: every id in range, and no trailing non-vote.
func canonicalColumn(col []uint32, n uint32) bool {
	for _, id := range col {
		if id > n {
			return false
		}
	}
	return len(col) == 0 || col[len(col)-1] != 0
}

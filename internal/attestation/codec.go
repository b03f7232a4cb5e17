package attestation

import (
	"repro/internal/codec"
	"repro/internal/types"
)

// DataBytes is the encoded size of one attestation data value.
const DataBytes = 8 + 32 + 2*(8+32)

// Walk moves one attestation data value.
func (d *Data) Walk(c *codec.Coder) {
	c.U64((*uint64)(&d.Slot))
	c.Raw(d.Head[:])
	d.Source.Walk(c)
	d.Target.Walk(c)
}

// Walk moves the pool for the durable snapshot codec: target epochs in
// ascending order, each as its number, its value table and its id columns.
// Decoding empties the pool as Reset does and fills each decoded epoch into
// a spare's storage while there is one. A decoded pool whose epochs are out
// of order is corrupt.
func (p *Pool) Walk(c *codec.Coder) {
	if !c.Encoding() {
		p.Reset(0)
	}
	codec.Slice(c, &p.epochs, 8+4*4, func(ev **EpochVotes, c *codec.Coder) {
		if !c.Encoding() {
			*ev = p.spare(0)
		}
		(*ev).walk(c)
	})
	if c.Encoding() {
		return
	}
	for i, ev := range p.epochs {
		if i > 0 && ev.epoch <= p.epochs[i-1].epoch {
			c.Corrupt("attestation: pool epoch %d after %d", ev.epoch, p.epochs[i-1].epoch)
			return
		}
		p.width = max(p.width, len(ev.first))
	}
}

// walk moves the epoch, the table and the columns, each column cut after
// its last vote: how far past that a column has been sized is an
// allocation choice, not state (first-seen order of the table and arrival
// order of the spill are state — dedup, VotesForEpoch and the slashing
// detector observe them).
//
// Decoding rebuilds the source range from the table, exactly as interning
// built it, and the second column at the first's length. Anything the
// encoder cannot have written — a table entry of another epoch, an id past
// its table, a column ending in a non-vote, a second vote without a first,
// a spill entry without a second — is corrupt, so a decoded epoch
// re-encodes to the bytes it came from.
func (ev *EpochVotes) walk(c *codec.Coder) {
	c.U64((*uint64)(&ev.epoch))
	codec.Slice(c, &ev.table, DataBytes, (*Data).Walk)
	first, second := ev.first, ev.second
	if c.Encoding() {
		first = first[:ev.voted]
		for len(second) > 0 && second[len(second)-1] == 0 {
			second = second[:len(second)-1]
		}
	}
	c.U32s(&first)
	c.U32s(&second)
	codec.Slice(c, &ev.spill, 8+4, func(sp *spillVote, c *codec.Coder) {
		c.U64((*uint64)(&sp.validator))
		c.U32(&sp.id)
	})
	if c.Encoding() || c.Err() != nil {
		return
	}
	for i, d := range ev.table {
		if d.Target.Epoch != ev.epoch {
			c.Corrupt("attestation: vote for target epoch %d filed under %d", d.Target.Epoch, ev.epoch)
			return
		}
		ev.noteSource(i)
	}
	ids := uint32(len(ev.table))
	if !canonicalColumn(first, ids) || !canonicalColumn(second, ids) || len(second) > len(first) {
		c.Corrupt("attestation: malformed id column")
		return
	}
	ev.first, ev.voted, ev.lead = first, len(first), 0
	for ev.lead < len(first) && first[ev.lead] == 0 {
		ev.lead++
	}
	if len(second) > 0 {
		ev.second = make([]uint32, len(first))
		copy(ev.second, second)
	}
	for v, id := range second {
		if id != 0 && first[v] == 0 {
			c.Corrupt("attestation: validator %d has a second vote and no first", v)
			return
		}
	}
	for i, sp := range ev.spill {
		if sp.id == 0 || sp.id > ids || sp.validator >= types.ValidatorIndex(len(second)) || second[sp.validator] == 0 {
			c.Corrupt("attestation: malformed spill entry %d", i)
			return
		}
	}
}

// canonicalColumn reports whether col could have been written by walk over
// a table of n values: every id in range, and no trailing non-vote.
func canonicalColumn(col []uint32, n uint32) bool {
	for _, id := range col {
		if id > n {
			return false
		}
	}
	return len(col) == 0 || col[len(col)-1] != 0
}

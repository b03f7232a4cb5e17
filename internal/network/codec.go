package network

import (
	"maps"
	"slices"

	"repro/internal/codec"
	"repro/internal/types"
)

// Walk moves the network — configuration, partition and bridging maps,
// counters, and every held message — for the durable snapshot codec. The
// payload type is generic, so the caller supplies the message walk and the
// fewest bytes a message encodes as. Inbox slots are written in sorted
// order and each slot's messages in delivery order (delivery order is
// observable state: the simulator fans batches out in listed order). A
// decoded configuration is restored verbatim (no constructor defaulting —
// a snapshotted RetryDelay of 2 decodes as 2, not as "0, defaulted
// later"). Decoding empties the network as Reset does and refills it in
// the storage it holds: its inboxes, and the lists on each endpoint's free
// list for that endpoint's decoded slots' messages.
func (n *Network[M]) Walk(c *codec.Coder, msgBytes int, msg func(*M, *codec.Coder)) {
	if !c.Encoding() {
		n.empty()
	}
	c.Int(&n.cfg.Nodes)
	c.U64((*uint64)(&n.cfg.GST))
	c.U64((*uint64)(&n.cfg.Delay))
	c.F64(&n.cfg.DropRate)
	c.U64((*uint64)(&n.cfg.RetryDelay))
	c.I64(&n.cfg.Seed)
	codec.Slice(c, &n.partition, 8, func(p *int, c *codec.Coder) { c.Int(p) })
	codec.Slice(c, &n.bridging, 1, func(b *bool, c *codec.Coder) { c.Bool(b) })
	c.Int(&n.sent)
	c.Int(&n.dropped)
	node := 0
	codec.Slice(c, &n.inbox, 4, func(box *map[types.Slot][]M, c *codec.Coder) {
		var spare *[][]M
		if node < len(n.ports) {
			spare = &n.ports[node].spare
		}
		node++
		var slots []types.Slot
		if c.Encoding() {
			slots = slices.AppendSeq(make([]types.Slot, 0, len(*box)), maps.Keys(*box))
			slices.Sort(slots)
		} else if *box == nil {
			*box = make(map[types.Slot][]M)
		} else {
			clear(*box)
		}
		codec.Slice(c, &slots, 8+4, func(s *types.Slot, c *codec.Coder) {
			c.U64((*uint64)(s))
			msgs := (*box)[*s]
			if !c.Encoding() && spare != nil && len(*spare) > 0 {
				k := len(*spare) - 1
				msgs, *spare = (*spare)[k], (*spare)[:k]
			}
			if codec.Slice(c, &msgs, msgBytes, msg); !c.Encoding() {
				(*box)[*s] = msgs
			}
		})
	})
	if !c.Encoding() {
		n.sizePorts()
	}
}

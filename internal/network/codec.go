package network

import (
	"maps"
	"slices"

	"repro/internal/codec"
	"repro/internal/types"
)

// EncodeTo serializes the network — configuration, partition and bridging
// maps, counters, and every held message — for the durable snapshot
// codec. The payload type is generic, so the caller supplies the message
// encoder. Inbox slots are written in sorted order and each slot's
// messages in delivery order (delivery order is observable state: the
// simulator fans batches out in listed order).
func (n *Network[M]) EncodeTo(w *codec.Writer, enc func(*codec.Writer, M)) {
	w.Int(n.cfg.Nodes)
	w.U64(uint64(n.cfg.GST))
	w.U64(uint64(n.cfg.Delay))
	w.F64(n.cfg.DropRate)
	w.U64(uint64(n.cfg.RetryDelay))
	w.I64(n.cfg.Seed)
	w.Len(len(n.partition))
	for _, p := range n.partition {
		w.Int(p)
	}
	w.Len(len(n.bridging))
	for _, b := range n.bridging {
		w.Bool(b)
	}
	w.Int(n.sent)
	w.Int(n.dropped)
	w.Len(len(n.inbox))
	for _, box := range n.inbox {
		slots := slices.AppendSeq(make([]types.Slot, 0, len(box)), maps.Keys(box))
		slices.Sort(slots)
		w.Len(len(slots))
		for _, s := range slots {
			w.U64(uint64(s))
			msgs := box[s]
			w.Len(len(msgs))
			for _, m := range msgs {
				enc(w, m)
			}
		}
	}
}

// DecodeNetwork reconstructs a network serialized by EncodeTo. The
// configuration is restored verbatim (no constructor defaulting — a
// snapshotted RetryDelay of 2 decodes as 2, not as "0, defaulted later").
func DecodeNetwork[M any](r *codec.Reader, dec func(*codec.Reader) M) *Network[M] {
	n := &Network[M]{}
	n.cfg.Nodes = r.Int()
	n.cfg.GST = types.Slot(r.U64())
	n.cfg.Delay = types.Slot(r.U64())
	n.cfg.DropRate = r.F64()
	n.cfg.RetryDelay = types.Slot(r.U64())
	n.cfg.Seed = r.I64()
	np := r.Len()
	if r.Err() != nil {
		return nil
	}
	n.partition = make([]int, np)
	for i := 0; i < np; i++ {
		n.partition[i] = r.Int()
	}
	nb := r.Len()
	if r.Err() != nil {
		return nil
	}
	n.bridging = make([]bool, nb)
	for i := 0; i < nb; i++ {
		n.bridging[i] = r.Bool()
	}
	n.sent = r.Int()
	n.dropped = r.Int()
	ni := r.Len()
	if r.Err() != nil {
		return nil
	}
	n.inbox = make([]map[types.Slot][]M, ni)
	for i := 0; i < ni; i++ {
		ns := r.Len()
		if r.Err() != nil {
			return nil
		}
		box := make(map[types.Slot][]M)
		for j := 0; j < ns; j++ {
			s := types.Slot(r.U64())
			nm := r.Len()
			if r.Err() != nil {
				return nil
			}
			msgs := make([]M, 0, min(nm, 64))
			for k := 0; k < nm && r.Err() == nil; k++ {
				msgs = append(msgs, dec(r))
			}
			box[s] = msgs
		}
		n.inbox[i] = box
	}
	if r.Err() != nil {
		return nil
	}
	return n
}

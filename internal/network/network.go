// Package network simulates the message-passing layer of the paper's system
// model (Section 2): a best-effort broadcast over a partially synchronous
// network. Before GST the network may be split into partitions whose members
// cannot hear each other; within a partition (and globally after GST)
// message delay is bounded.
//
// Endpoints are abstract: the view-cohort simulator (internal/sim) attaches
// one endpoint per materialized view — a whole partition of honest
// validators shares one endpoint, because its members provably receive the
// same messages — while its per-validator oracle mode attaches one endpoint
// per validator. Nothing in this package assumes either granularity.
//
// Byzantine endpoints may be marked as bridging: they hear every partition
// and their messages reach every partition even before GST — the paper's
// strong adversary that "can coordinate Byzantine validators, even across
// network partitions".
//
// Failure injection uses a link-outage model: with probability DropRate,
// the inbound link of a partition is down for a slot, and every message
// sent into it that slot is retransmitted RetryDelay slots later.
// Intra-partition delivery is reliable (members of one partition share a
// view; there is no lossy link between them). Outages are derived from a
// deterministic hash of (seed, send slot, receiver partition), so the drop
// schedule is identical no matter how senders batch their messages or how
// many endpoints a partition is split into — the property that keeps the
// cohort simulator bit-identical to its per-validator oracle under loss.
//
// A slot's message path allocates nothing in the steady state: the list
// Deliveries hands out is the network's own, lent until the next
// Deliveries call for that endpoint, which clears it and keeps it for a
// later slot's messages to the same endpoint. Messages are stored by value,
// so a simulator whose message type is a value sends without allocating,
// and a Clone copies them. Reset empties a network in place for its next
// run and keeps every list, including one held for GST.
//
// Each endpoint keeps its own inbox and free list, so goroutines that each
// drive the endpoints of one partition may call Deliveries and
// BroadcastWithin for their own endpoints at once, while nothing else uses
// the network; BroadcastAcross then completes their sends one goroutine at
// a time.
package network

import (
	"maps"
	"slices"

	"repro/internal/types"
)

// NodeID identifies a network endpoint.
type NodeID = types.ValidatorIndex

// Never is a GST value meaning "partitions never heal". Any delivery
// scheduled at or after it can never occur within a run, so such messages
// are discarded at enqueue time instead of being held: a lasting-partition
// leak run to paper horizons would otherwise accumulate every
// cross-partition message of thousands of epochs in inboxes that are never
// drained. Semantically the two are identical for any run shorter than
// Never; dropping just returns the memory. sim/leak and sim/partition
// both run under it.
const Never types.Slot = 1 << 62

// FarFuture is a finite stand-in for "a GST later than any slot this run
// will reach". Unlike Never, deliveries scheduled against it are HELD in
// inboxes rather than discarded, which is what a shared-prefix simulation
// needs: a warm-start prefix runs with GST = FarFuture so every pre-GST
// cross-partition message survives into the snapshot, and a continuation
// restored from that snapshot rebases them onto its own heal slot with
// RetargetGST. Runs that truly never heal should keep using Never and its
// enqueue-time discard.
const FarFuture types.Slot = Never >> 1

// Config parameterizes a simulated network.
type Config struct {
	// Nodes is the number of endpoints (0..Nodes-1).
	Nodes int
	// GST is the slot at which partitions heal and delays become
	// uniformly bounded.
	GST types.Slot
	// Delay is the in-partition (and post-GST) delivery delay in slots.
	Delay types.Slot
	// DropRate is the probability that a partition's inbound link is down
	// for any given slot; messages sent into it that slot arrive
	// RetryDelay slots late.
	DropRate float64
	// RetryDelay is the extra delay of a retransmission (default 2).
	RetryDelay types.Slot
	// Seed feeds the deterministic link-outage schedule.
	Seed int64
}

// Network is a deterministic discrete-slot message bus. The zero value is
// not usable; construct with New.
type Network[M any] struct {
	cfg       Config
	partition []int
	bridging  []bool
	// inbox[node] maps delivery slot to the messages arriving then.
	inbox []map[types.Slot][]M
	// counters for metrics.
	sent, dropped int
	// ports[node] is the endpoint's list storage.
	//gasper:nocodec the caller's view of the last drain and an allocation cache, not in-flight state
	//gasper:shallow a clone starts with none: a list its original handed out or keeps is the original's
	ports []port[M]
}

// port is one endpoint's list storage: drained is the list the last
// Deliveries call for the endpoint returned, which the next call clears onto
// spare, where enqueue takes lists for the endpoint's new slots from.
type port[M any] struct {
	drained []M
	spare   [][]M
	// pad keeps two endpoints' ports, which two goroutines may write at
	// once, off a shared cache line.
	_ [128]byte
}

// Reset makes the network a fresh one for cfg (every endpoint in partition
// 0, none bridging, nothing in flight) in the storage it holds;
// new(Network[M]).Reset builds one. Every inbox list, a held one included,
// is cleared onto the free list that enqueue starts new slots' lists from,
// so a run like the last one grows none. No list Deliveries lent may still
// be in use.
func (n *Network[M]) Reset(cfg Config) {
	if cfg.RetryDelay == 0 {
		cfg.RetryDelay = 2
	}
	n.empty()
	n.cfg, n.sent, n.dropped = cfg, 0, 0
	n.partition = append(n.partition[:0], make([]int, cfg.Nodes)...)
	n.bridging = append(n.bridging[:0], make([]bool, cfg.Nodes)...)
	n.inbox = slices.Grow(n.inbox[:0], cfg.Nodes)[:cfg.Nodes]
	for i, box := range n.inbox {
		if box == nil {
			n.inbox[i] = make(map[types.Slot][]M)
		}
	}
	n.sizePorts()
}

// sizePorts gives every endpoint a port, handing the free lists of ports
// past the last endpoint to the first, largest first as empty leaves them.
func (n *Network[M]) sizePorts() {
	if len(n.ports) > max(len(n.inbox), 1) {
		for k := len(n.ports) - 1; k > 0 && k >= len(n.inbox); k-- {
			n.ports[0].spare = append(n.ports[0].spare, n.ports[k].spare...)
			n.ports[k] = port[M]{}
		}
		slices.SortFunc(n.ports[0].spare, byCapDesc)
	}
	n.ports = slices.Grow(n.ports[:min(len(n.ports), len(n.inbox))], len(n.inbox))[:len(n.inbox)]
}

// empty clears every inbox list, a held one included, onto its endpoint's
// free list, and leaves every inbox empty.
func (n *Network[M]) empty() {
	for i := range n.ports {
		n.recycleDrained(NodeID(i))
	}
	for i, box := range n.inbox {
		if i >= len(n.ports) {
			break
		}
		pt := &n.ports[i]
		//gasper:ordered the lists only become spare storage, whose order decides no delivery
		for _, msgs := range box {
			clear(msgs)
			pt.spare = append(pt.spare, msgs[:0])
		}
		clear(box)
		// Largest first, so that the slots' lists, taken from the end,
		// start on the small ones.
		slices.SortFunc(pt.spare, byCapDesc)
	}
}

func byCapDesc[M any](a, b []M) int { return cap(b) - cap(a) }

// SetPartition assigns an endpoint to a partition. The partition scopes
// pre-GST reachability and identifies the endpoint's inbound link for the
// outage schedule.
func (n *Network[M]) SetPartition(node NodeID, p int) {
	if int(node) < len(n.partition) {
		n.partition[node] = p
	}
}

// Partition returns the partition of an endpoint.
func (n *Network[M]) Partition(node NodeID) int {
	if int(node) >= len(n.partition) {
		return 0
	}
	return n.partition[node]
}

// SetBridging marks an endpoint as partition-bridging (the Byzantine
// privilege).
func (n *Network[M]) SetBridging(node NodeID, b bool) {
	if int(node) < len(n.bridging) {
		n.bridging[node] = b
	}
}

// Healed reports whether partitions have healed at the given slot.
func (n *Network[M]) Healed(at types.Slot) bool { return at >= n.cfg.GST }

// Reachable reports whether a message sent by from at the given slot
// reaches to without waiting for GST.
func (n *Network[M]) Reachable(from, to NodeID, at types.Slot) bool {
	if from == to || n.Healed(at) {
		return true
	}
	if int(from) < len(n.bridging) && n.bridging[from] {
		return true
	}
	if int(to) < len(n.bridging) && n.bridging[to] {
		return true
	}
	return n.Partition(from) == n.Partition(to)
}

// linkDown reports whether the inbound link of partition p is down at the
// given slot: a deterministic splitmix64 hash of (seed, slot, partition)
// mapped to [0,1) and compared against DropRate.
func (n *Network[M]) linkDown(at types.Slot, p int) bool {
	if n.cfg.DropRate <= 0 {
		return false
	}
	z := uint64(n.cfg.Seed) ^ uint64(at)*0x9e3779b97f4a7c15 ^ uint64(int64(p))*0xbf58476d1ce4e5b9
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / float64(1<<53)
	return u < n.cfg.DropRate
}

// deliveryAt computes the arrival slot of a message sent at `at` from the
// sender's partition into the receiver's, given base reachability:
// unreachable messages are held until GST, and a cross-partition link
// outage adds the retransmission delay.
func (n *Network[M]) deliveryAt(at types.Slot, reachable bool, fromPartition, toPartition int) types.Slot {
	var deliverAt types.Slot
	if reachable {
		deliverAt = at + n.cfg.Delay
	} else {
		deliverAt = n.cfg.GST + n.cfg.Delay
	}
	if fromPartition != toPartition && n.linkDown(at, toPartition) {
		n.dropped++
		deliverAt += n.cfg.RetryDelay
	}
	return deliverAt
}

// Broadcast sends msg from endpoint `from` at slot `at` to every endpoint,
// including the sender (self-delivery also takes Delay, so that a slot's
// already-drained inbox is never appended to). Cross-partition messages
// before GST are held and delivered at GST + Delay, mirroring the partial
// synchrony guarantee that pre-GST messages arrive by GST + delta.
func (n *Network[M]) Broadcast(from NodeID, at types.Slot, msg M) {
	n.BroadcastWithin(from, at, msg)
	n.BroadcastAcross(from, at, msg)
}

// BroadcastWithin is the part of Broadcast that reaches the endpoints of
// the sender's own partition, itself included, each after Delay. It counts
// nothing and touches only those endpoints' inboxes and free lists.
//
//gasper:noalloc
func (n *Network[M]) BroadcastWithin(from NodeID, at types.Slot, msg M) {
	fromP := n.Partition(from)
	for node := 0; node < n.cfg.Nodes; node++ {
		if n.partition[node] == fromP {
			n.enqueue(NodeID(node), at+n.cfg.Delay, msg)
		}
	}
}

// BroadcastAcross is the rest of Broadcast: msg reaches every endpoint of
// another partition, and the send is counted.
func (n *Network[M]) BroadcastAcross(from NodeID, at types.Slot, msg M) {
	fromP := n.Partition(from)
	for node := 0; node < n.cfg.Nodes; node++ {
		to := NodeID(node)
		if toP := n.partition[node]; toP != fromP {
			n.enqueue(to, n.deliveryAt(at, n.Reachable(from, to, at), fromP, toP), msg)
		}
	}
	n.sent++
}

// BroadcastAs routes msg as if the sender were a non-bridging member of
// partition asPartition: members of that partition (and bridging receivers)
// get it after Delay, everyone else at GST + Delay. This is how a Byzantine
// validator shows one face per partition — its double votes reach only the
// intended partition before GST, yet partial synchrony still delivers every
// pre-GST message by GST + Delay, so evidence of equivocation eventually
// surfaces. Link outages still key on the sender's true partition.
func (n *Network[M]) BroadcastAs(from NodeID, asPartition int, at types.Slot, msg M) {
	fromP := n.Partition(from)
	for node := 0; node < n.cfg.Nodes; node++ {
		to := NodeID(node)
		if to == from {
			n.enqueue(to, at+n.cfg.Delay, msg)
			continue
		}
		reachable := n.Healed(at) ||
			n.Partition(to) == asPartition ||
			(int(to) < len(n.bridging) && n.bridging[to])
		n.enqueue(to, n.deliveryAt(at, reachable, fromP, n.Partition(to)), msg)
	}
	n.sent++
}

// enqueue appends msg to the list for (to, at), starting a new slot's list
// from a drained one when there is one.
//
//gasper:noalloc
func (n *Network[M]) enqueue(to NodeID, at types.Slot, msg M) {
	if int(to) >= len(n.inbox) {
		return
	}
	// A delivery scheduled at or past Never can never happen; see Never.
	if at >= Never {
		return
	}
	box, spare := n.inbox[to], &n.ports[to].spare
	list := box[at]
	if list == nil && len(*spare) > 0 {
		k := len(*spare) - 1
		if at >= n.cfg.GST+n.cfg.Delay {
			// Before GST a list this late is held for the heal, and grows
			// to every message sent across partitions until then: it takes
			// the largest spare, likely the one the last run held.
			for i := range *spare {
				if cap((*spare)[i]) > cap((*spare)[k]) {
					k = i
				}
			}
		}
		list = (*spare)[k]
		(*spare)[k] = (*spare)[len(*spare)-1]
		*spare = (*spare)[:len(*spare)-1]
	}
	box[at] = append(list, msg) //gasper:alloc one-time growth: a list grows to its slot's message count, then is recycled
}

// Clone deep-copies the network's mutable state (in-flight inboxes and
// counters), so a snapshotted simulation can be restored mid-run. Messages
// are copied as values: what one references (a sim batch's member list)
// is shared, and the simulator treats it as immutable.
func (n *Network[M]) Clone() *Network[M] {
	out := &Network[M]{
		cfg:       n.cfg,
		partition: append([]int(nil), n.partition...),
		bridging:  append([]bool(nil), n.bridging...),
		inbox:     make([]map[types.Slot][]M, len(n.inbox)),
		ports:     make([]port[M], len(n.inbox)),
		sent:      n.sent,
		dropped:   n.dropped,
	}
	for i, box := range n.inbox {
		cp := make(map[types.Slot][]M, len(box))
		//gasper:ordered per-key copy into a fresh map: the clone is the same whatever the order
		for at, msgs := range box {
			cp[at] = append([]M(nil), msgs...)
		}
		out.inbox[i] = cp
	}
	return out
}

// RetargetGST rebases the network onto a new heal slot: every delivery held
// for the old GST (scheduled at or after oldGST + Delay — the band only
// held cross-partition messages occupy, since a regular delivery is always
// send slot + small delay) is moved to the same offset past the new GST,
// and future reachability checks use the new GST. Within-slot message
// order is preserved: held messages sharing a delivery slot move as one
// slice, and their new slots precede anything a post-retarget sender will
// enqueue — exactly the send-order interleaving a run with the new GST
// from slot 0 would have produced. Deliveries rebased to at or past Never
// are discarded, so retargeting onto Never reproduces its enqueue-time
// discard semantics.
//
// This is the warm-start primitive: a shared-prefix snapshot taken under
// GST = FarFuture is restored into a continuation whose config names the
// real heal slot, and sim.Restore calls RetargetGST to make the held
// traffic land where a cold run would have put it.
func (n *Network[M]) RetargetGST(gst types.Slot) {
	old := n.cfg.GST
	n.cfg.GST = gst
	if old == gst {
		return
	}
	oldBase := old + n.cfg.Delay
	newBase := gst + n.cfg.Delay
	type heldEntry struct {
		at   types.Slot
		msgs []M
	}
	for _, box := range n.inbox {
		// Two phases — take out the held band in slot order, then
		// reinsert — so a moved slot can never be mistaken for a
		// still-to-move one, whichever direction the retarget goes.
		var held []heldEntry
		for _, at := range slices.Sorted(maps.Keys(box)) {
			if at >= oldBase {
				held = append(held, heldEntry{at, box[at]})
				delete(box, at)
			}
		}
		for _, h := range held {
			moved := newBase + (h.at - oldBase)
			if moved >= Never {
				continue
			}
			// A restored prefix has no regular in-flight delivery at or
			// past newBase yet, so prepending is only a safeguard: if
			// anything does occupy the slot, the held messages were sent
			// earlier and must drain first.
			box[moved] = append(h.msgs, box[moved]...)
		}
	}
}

// Deliveries drains and returns the messages arriving at endpoint `to` in
// slot `at`, in deterministic send order. The list is the network's: it
// stays valid until the next Deliveries call for `to`, which clears it (so
// it keeps no message alive) and reuses it for a later slot. A caller that
// keeps messages past that copies them out.
//
//gasper:noalloc
func (n *Network[M]) Deliveries(to NodeID, at types.Slot) []M {
	if int(to) >= len(n.inbox) {
		return nil
	}
	n.recycleDrained(to)
	msgs := n.inbox[to][at]
	delete(n.inbox[to], at)
	n.ports[to].drained = msgs
	return msgs
}

// recycleDrained clears the list the last Deliveries call for `to` lent,
// so it keeps no message alive, and puts it on the endpoint's free list.
//
//gasper:noalloc
func (n *Network[M]) recycleDrained(to NodeID) {
	if drained := n.ports[to].drained; drained != nil {
		clear(drained)
		n.ports[to].spare = append(n.ports[to].spare, drained[:0])
		n.ports[to].drained = nil
	}
}

// PendingFor counts queued messages for an endpoint (metrics and tests).
func (n *Network[M]) PendingFor(to NodeID) int {
	if int(to) >= len(n.inbox) {
		return 0
	}
	total := 0
	//gasper:ordered integer sum: commutative
	for _, msgs := range n.inbox[to] {
		total += len(msgs)
	}
	return total
}

// Stats returns (messages sent, deliveries delayed by link outages).
func (n *Network[M]) Stats() (sent, dropped int) { return n.sent, n.dropped }

package network

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/types"
)

// newNetwork is a network with every endpoint in partition 0, built the way
// a simulation builds its own.
func newNetwork[M any](cfg Config) *Network[M] {
	n := new(Network[M])
	n.Reset(cfg)
	return n
}

func newNet(nodes int, gst, delay types.Slot) *Network[string] {
	return newNetwork[string](Config{Nodes: nodes, GST: gst, Delay: delay})
}

func TestBroadcastSamePartition(t *testing.T) {
	n := newNet(3, 1000, 1)
	n.Broadcast(0, 5, "hello")
	// Sender receives after Delay like everyone else (never into an
	// already-drained slot).
	if got := n.Deliveries(0, 6); len(got) != 1 || got[0] != "hello" {
		t.Errorf("self-delivery = %v", got)
	}
	// Peers receive after Delay.
	if got := n.Deliveries(1, 5); len(got) != 0 {
		t.Errorf("early delivery: %v", got)
	}
	if got := n.Deliveries(1, 6); len(got) != 1 {
		t.Errorf("delivery at +delay = %v", got)
	}
	if got := n.Deliveries(2, 6); len(got) != 1 {
		t.Errorf("delivery to node 2 = %v", got)
	}
}

func TestDeliveriesDrains(t *testing.T) {
	n := newNet(2, 1000, 0)
	n.Broadcast(0, 5, "x")
	if got := n.Deliveries(1, 5); len(got) != 1 {
		t.Fatalf("first drain = %v", got)
	}
	if got := n.Deliveries(1, 5); len(got) != 0 {
		t.Errorf("second drain must be empty, got %v", got)
	}
}

func TestPartitionBlocksCrossTraffic(t *testing.T) {
	n := newNet(4, 100, 1)
	n.SetPartition(0, 0)
	n.SetPartition(1, 0)
	n.SetPartition(2, 1)
	n.SetPartition(3, 1)
	n.Broadcast(0, 5, "intra")
	// Same partition: delivered at 6.
	if got := n.Deliveries(1, 6); len(got) != 1 {
		t.Errorf("intra-partition delivery missing: %v", got)
	}
	// Cross partition: held until GST + delay.
	if got := n.Deliveries(2, 6); len(got) != 0 {
		t.Errorf("cross-partition message leaked before GST: %v", got)
	}
	if got := n.Deliveries(2, 101); len(got) != 1 {
		t.Errorf("cross-partition message not delivered at GST+delay: %v", got)
	}
	if got := n.Deliveries(3, 101); len(got) != 1 {
		t.Errorf("cross-partition message to node 3 missing: %v", got)
	}
}

func TestPartitionHealsAtGST(t *testing.T) {
	n := newNet(2, 100, 1)
	n.SetPartition(0, 0)
	n.SetPartition(1, 1)
	n.Broadcast(0, 100, "after-gst")
	if got := n.Deliveries(1, 101); len(got) != 1 {
		t.Errorf("post-GST broadcast must cross former partitions: %v", got)
	}
}

// TestBridgingNodeCrossesPartitions: a sender that is no endpoint — the
// Byzantine validators' id in the simulator — reaches every partition before
// GST, and nothing is queued for it.
func TestBridgingNodeCrossesPartitions(t *testing.T) {
	n := newNet(3, 1000, 1)
	n.SetPartition(0, 0)
	n.SetPartition(1, 1)
	n.SetPartition(2, 1)
	const outsider = NodeID(3)
	n.Broadcast(outsider, 5, "byzantine")
	for to := NodeID(0); to < 3; to++ {
		if got := n.Deliveries(to, 6); len(got) != 1 {
			t.Errorf("endpoint %d missed the outside sender's message: %v", to, got)
		}
	}
	if n.PendingFor(outsider) != 0 || n.Deliveries(outsider, 6) != nil {
		t.Error("a message was queued for the outside sender")
	}
	// Non-bridging node 2 in partition 1 hears node 1 normally, and node 0
	// in partition 0 not before GST.
	n.Broadcast(1, 10, "honest-p1")
	if got := n.Deliveries(2, 11); len(got) != 1 {
		t.Errorf("intra-partition delivery missing: %v", got)
	}
	if got := n.Deliveries(0, 11); len(got) != 0 {
		t.Errorf("cross-partition delivery before GST: %v", got)
	}
}

func TestReachable(t *testing.T) {
	n := newNet(3, 100, 0)
	n.SetPartition(0, 0)
	n.SetPartition(1, 1)
	if n.Reachable(0, 1, 50) {
		t.Error("cross-partition before GST must be unreachable")
	}
	if !n.Reachable(0, 1, 100) {
		t.Error("must be reachable at GST")
	}
	if !n.Reachable(0, 0, 50) {
		t.Error("self always reachable")
	}
	if !n.Reachable(3, 1, 50) || !n.Reachable(3, 0, 50) {
		t.Error("a sender that is no endpoint must reach every endpoint")
	}
}

func TestBroadcastAsRoutesByChosenPartition(t *testing.T) {
	n := newNet(4, 100, 1)
	n.SetPartition(1, 0)
	n.SetPartition(2, 1)
	n.SetPartition(3, 1)
	// The Byzantine sender, no endpoint, speaks "as partition 1".
	const byzantine = NodeID(4)
	n.BroadcastAs(byzantine, 1, 5, "faceB")
	// Partition-1 members receive promptly.
	if got := n.Deliveries(2, 6); len(got) != 1 {
		t.Errorf("partition-1 member missed the message: %v", got)
	}
	if got := n.Deliveries(3, 6); len(got) != 1 {
		t.Errorf("partition-1 member missed the message: %v", got)
	}
	// Partition-0 members only hear it at GST+delay (evidence surfaces
	// after synchrony resumes).
	for _, to := range []NodeID{0, 1} {
		if got := n.Deliveries(to, 6); len(got) != 0 {
			t.Errorf("partition-0 member %d heard the other face early: %v", to, got)
		}
		if got := n.Deliveries(to, 101); len(got) != 1 {
			t.Errorf("partition-0 member %d never got the delayed face: %v", to, got)
		}
	}
	if n.PendingFor(byzantine) != 0 {
		t.Error("a message was queued for the sender")
	}
	// An endpoint speaking as another partition hears itself after Delay.
	n.BroadcastAs(0, 1, 10, "self")
	if got := n.Deliveries(0, 11); len(got) != 1 {
		t.Errorf("self-delivery missing: %v", got)
	}
}

func TestBroadcastAsAfterGST(t *testing.T) {
	n := newNet(3, 10, 1)
	n.SetPartition(1, 0)
	n.SetPartition(2, 1)
	n.BroadcastAs(0, 1, 20, "late")
	if got := n.Deliveries(1, 21); len(got) != 1 {
		t.Errorf("post-GST BroadcastAs must reach everyone: %v", got)
	}
}

func TestDropRateRetransmits(t *testing.T) {
	// Drops are link outages between distinct partitions: a healed
	// network (GST 0) with the receiver in another partition sees every
	// cross-partition delivery delayed by RetryDelay at DropRate 1.
	n := newNetwork[string](Config{Nodes: 2, GST: 0, Delay: 1, DropRate: 1.0, RetryDelay: 3, Seed: 7})
	n.SetPartition(1, 1)
	n.Broadcast(0, 10, "flaky")
	// First attempt always dropped; retransmission arrives at 10+1+3.
	if got := n.Deliveries(1, 11); len(got) != 0 {
		t.Errorf("dropped delivery arrived: %v", got)
	}
	if got := n.Deliveries(1, 14); len(got) != 1 {
		t.Errorf("retransmission missing: %v", got)
	}
	sent, dropped := n.Stats()
	if sent != 1 || dropped != 1 {
		t.Errorf("stats = (%d, %d), want (1, 1)", sent, dropped)
	}
}

func TestDropIntraPartitionReliable(t *testing.T) {
	// Members of one partition share a view; there is no lossy link
	// between them, so even DropRate 1 never delays intra-partition
	// delivery.
	n := newNetwork[string](Config{Nodes: 2, GST: 0, Delay: 1, DropRate: 1.0, Seed: 7})
	n.Broadcast(0, 10, "local")
	if got := n.Deliveries(1, 11); len(got) != 1 {
		t.Errorf("intra-partition delivery dropped: %v", got)
	}
}

func TestDropScheduleIndependentOfEndpointCount(t *testing.T) {
	// The outage schedule keys on (seed, slot, receiver partition), so a
	// partition split across many endpoints experiences exactly the same
	// delays as the same partition behind a single endpoint — the
	// property the view-cohort simulator's oracle equivalence relies on.
	coarse := newNetwork[string](Config{Nodes: 2, GST: 0, Delay: 1, DropRate: 0.5, Seed: 42})
	coarse.SetPartition(1, 1)
	fine := newNetwork[string](Config{Nodes: 4, GST: 0, Delay: 1, DropRate: 0.5, Seed: 42})
	fine.SetPartition(1, 1)
	fine.SetPartition(2, 1)
	fine.SetPartition(3, 1)
	for i := 0; i < 50; i++ {
		coarse.Broadcast(0, types.Slot(i), "m")
		fine.Broadcast(0, types.Slot(i), "m")
	}
	for s := types.Slot(0); s < 60; s++ {
		want := len(coarse.Deliveries(1, s))
		for to := NodeID(1); to <= 3; to++ {
			if got := len(fine.Deliveries(to, s)); got != want {
				t.Fatalf("slot %d endpoint %d: %d deliveries, single-endpoint partition got %d", s, to, got, want)
			}
		}
	}
}

func TestDropNeverLosesMessages(t *testing.T) {
	// Best-effort broadcast: every message eventually arrives despite a
	// 50% outage rate on the receiver's link.
	n := newNetwork[string](Config{Nodes: 4, GST: 0, Delay: 1, DropRate: 0.5, Seed: 42})
	n.SetPartition(1, 1)
	const msgs = 100
	for i := 0; i < msgs; i++ {
		n.Broadcast(0, types.Slot(i), "m")
	}
	received := 0
	for s := types.Slot(0); s < msgs+10; s++ {
		received += len(n.Deliveries(1, s))
	}
	if received != msgs {
		t.Errorf("received %d of %d messages", received, msgs)
	}
}

func TestOutOfRangeNodesSafe(t *testing.T) {
	n := newNet(2, 100, 0)
	n.SetPartition(99, 1)
	if n.Partition(99) != -1 {
		t.Error("out-of-range partition should be -1, no endpoint's")
	}
	if got := n.Deliveries(99, 5); got != nil {
		t.Errorf("out-of-range deliveries = %v", got)
	}
	if n.PendingFor(99) != 0 {
		t.Error("out-of-range pending should be 0")
	}
	n.enqueue(99, 5, "x") // must not panic
}

func TestPendingFor(t *testing.T) {
	n := newNet(2, 1000, 1)
	n.Broadcast(0, 5, "a")
	n.Broadcast(0, 6, "b")
	if got := n.PendingFor(1); got != 2 {
		t.Errorf("pending = %d, want 2", got)
	}
	n.Deliveries(1, 6)
	if got := n.PendingFor(1); got != 1 {
		t.Errorf("pending after drain = %d, want 1", got)
	}
}

func TestDeterministicOrder(t *testing.T) {
	n := newNet(2, 1000, 0)
	n.Broadcast(0, 5, "first")
	n.Broadcast(0, 5, "second")
	got := n.Deliveries(1, 5)
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Errorf("delivery order = %v, want send order", got)
	}
}

// TestNeverHealingDropsUndeliverable pins the long-horizon memory
// contract: with GST = Never, cross-partition messages (which could only
// ever deliver at GST) are discarded at enqueue instead of accumulating,
// while intra-partition traffic is unaffected.
func TestNeverHealingDropsUndeliverable(t *testing.T) {
	n := newNetwork[int](Config{Nodes: 2, GST: Never, Delay: 1})
	n.SetPartition(0, 0)
	n.SetPartition(1, 1)
	n.Broadcast(0, 5, 42)
	if got := n.PendingFor(1); got != 0 {
		t.Errorf("cross-partition message held despite Never GST: %d pending", got)
	}
	if got := n.Deliveries(0, 6); len(got) != 1 || got[0] != 42 {
		t.Errorf("self/intra-partition delivery broken under Never: %v", got)
	}
	if n.Healed(1 << 61) {
		t.Error("a Never network must not heal")
	}
}

// TestNetworkCloneIsolatesInboxes pins the snapshot substrate: a cloned
// network shares no mutable delivery state with its original. It holds its
// own copy of every message, so the original draining its lists,
// recycling them and refilling them for a later slot leaves the clone's
// alone.
func TestNetworkCloneIsolatesInboxes(t *testing.T) {
	n := newNetwork[int](Config{Nodes: 2, Delay: 1})
	n.Broadcast(0, 1, 7)
	c := n.Clone()
	if got := n.Deliveries(1, 2); len(got) != 1 {
		t.Fatalf("original lost its delivery: %v", got)
	}
	n.Deliveries(0, 2) // recycles endpoint 1's list
	n.Broadcast(0, 2, 8)
	for to := NodeID(0); to < 2; to++ {
		if got := c.Deliveries(to, 2); len(got) != 1 || got[0] != 7 {
			t.Errorf("clone endpoint %d at slot 2 = %v, want [7]", to, got)
		}
	}
	sent, _ := c.Stats()
	if sent != 1 {
		t.Errorf("clone sent counter = %d, want 1", sent)
	}
}

// TestRetargetGSTMovesHeldBand pins the warm-start primitive: deliveries
// held for the old GST move to the same offset past the new one, with
// within-slot send order preserved and held traffic draining before
// anything already queued at the destination slot.
func TestRetargetGSTMovesHeldBand(t *testing.T) {
	n := newNetwork[int](Config{Nodes: 2, GST: FarFuture, Delay: 1})
	n.SetPartition(0, 0)
	n.SetPartition(1, 1)
	// Two cross-partition sends in order: both held at FarFuture + Delay.
	n.Broadcast(0, 3, 1)
	n.Broadcast(0, 5, 2)
	// A retransmission-style held delivery two slots deeper into the band.
	n.enqueue(1, FarFuture+3, 3)
	// Something already occupying the destination slot of the rebased band:
	// the held messages were sent earlier and must drain first.
	n.enqueue(1, 11, 99)

	n.RetargetGST(10)
	if got := n.cfg.GST; got != 10 {
		t.Fatalf("GST = %d after retarget, want 10", got)
	}
	if got := n.Deliveries(1, 11); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 99 {
		t.Errorf("rebased band at GST+Delay = %v, want [1 2 99]", got)
	}
	if got := n.Deliveries(1, 13); len(got) != 1 || got[0] != 3 {
		t.Errorf("held offset not preserved: %v, want [3]", got)
	}
	if !n.Healed(10) || n.Healed(9) {
		t.Error("reachability does not follow the retargeted GST")
	}
}

// TestRetargetGSTOntoNeverDiscards: rebasing held traffic onto Never must
// reproduce Never's enqueue-time discard semantics.
func TestRetargetGSTOntoNeverDiscards(t *testing.T) {
	n := newNetwork[int](Config{Nodes: 2, GST: FarFuture, Delay: 1})
	n.SetPartition(0, 0)
	n.SetPartition(1, 1)
	n.Broadcast(0, 2, 7)
	if got := n.PendingFor(1); got != 1 {
		t.Fatalf("FarFuture network should hold the cross-partition message, pending = %d", got)
	}
	n.RetargetGST(Never)
	if got := n.PendingFor(1); got != 0 {
		t.Errorf("retarget onto Never kept %d held messages", got)
	}
}

// storage returns the backing array of a list, nil for one without any.
func storage(l []string) *string {
	if cap(l) == 0 {
		return nil
	}
	return &l[:cap(l)][0]
}

// assertNoSharedStorage fails if any two lists held by the networks —
// inbox lists, spares, the last drained list — share a backing array.
func assertNoSharedStorage(t *testing.T, nets ...*Network[string]) {
	t.Helper()
	owner := map[*string]string{}
	note := func(l []string, where string) {
		p := storage(l)
		if p == nil {
			return
		}
		if prev, ok := owner[p]; ok {
			t.Errorf("%s shares its storage with %s", where, prev)
		}
		owner[p] = where
	}
	for i, n := range nets {
		for node, box := range n.inbox {
			for at, l := range box {
				note(l, fmt.Sprintf("net %d inbox %d slot %d", i, node, at))
			}
		}
		for node, pt := range n.ports {
			for j, l := range pt.spare {
				note(l, fmt.Sprintf("net %d endpoint %d spare %d", i, node, j))
			}
			note(pt.drained, fmt.Sprintf("net %d endpoint %d drained", i, node))
		}
	}
}

// TestDeliveriesReusesDrainedLists pins the lifetime of a drained list: it
// holds its messages until the next Deliveries call for its endpoint, even
// while new messages are sent and other endpoints drain, and that call
// clears it and lends its storage to a later slot of the endpoint. Clones, decoded copies and a held band rebased by
// RetargetGST never share storage with a recycled list.
func TestDeliveriesReusesDrainedLists(t *testing.T) {
	n := newNet(3, FarFuture, 1)
	n.SetPartition(2, 1)
	n.Broadcast(0, 5, "a")
	n.Broadcast(1, 5, "b")

	got := n.Deliveries(1, 6)
	// The simulator sends while it walks a drained list: the list must not
	// be lent out before the next Deliveries call.
	n.Broadcast(0, 6, "c")
	n.Broadcast(0, 6, "d")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("drained list changed before the next Deliveries call: %v", got)
	}
	first := storage(got)

	c := n.Clone()
	var frame bytes.Buffer
	msg := func(m *string, c *codec.Coder) { c.String(m) }
	n.Walk(codec.NewEncoder(&frame), 4, msg)
	d, dec := new(Network[string]), codec.NewDecoder(&frame)
	if d.Walk(dec, 4, msg); dec.Err() != nil {
		t.Fatalf("round trip failed: %v", dec.Err())
	}
	assertNoSharedStorage(t, n, c, d)

	// A copy's first drain must leave the original's lent list alone.
	c.Deliveries(0, 6)
	d.Deliveries(0, 6)
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("a copy's drain recycled the original's list: %v", got)
	}

	if next := n.Deliveries(0, 6); len(next) != 2 || next[0] != "a" {
		t.Fatalf("endpoint 0 at slot 6 = %v", next)
	}
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("another endpoint's drain recycled the list: %v", got)
	}
	if next := n.Deliveries(1, 7); len(next) != 2 || next[0] != "c" {
		t.Fatalf("endpoint 1 at slot 7 = %v", next)
	}
	if got[0] != "" || got[1] != "" {
		t.Errorf("recycled list still holds %v", got)
	}
	if spare := n.ports[1].spare; len(spare) != 1 || storage(spare[0]) != first || len(spare[0]) != 0 {
		t.Fatalf("endpoint 1's spare lists after its second drain: %d, want the first list emptied", len(spare))
	}

	// A new slot takes the spare, which comes back holding only its own
	// messages.
	n.enqueue(1, 9, "e")
	if len(n.ports[1].spare) != 0 || storage(n.inbox[1][9]) != first {
		t.Fatal("a new slot did not take the spare list")
	}
	// The copies still hold what they held: nothing of theirs was lent out.
	for i, cp := range []*Network[string]{c, d} {
		if l := cp.Deliveries(1, 7); len(l) != 2 || l[0] != "c" || l[1] != "d" {
			t.Errorf("copy %d at slot 7 = %v", i, l)
		}
		if pending := cp.PendingFor(2); pending != 4 {
			t.Errorf("copy %d holds %d messages for endpoint 2, want 4", i, pending)
		}
	}
	if l := n.Deliveries(1, 9); len(l) != 1 || l[0] != "e" {
		t.Errorf("reused list = %v, want [e]", l)
	}

	// Rebase the held band (four cross-partition messages for endpoint 2)
	// and fill new slots from spares around it.
	n.RetargetGST(20)
	n.Deliveries(0, 7)
	n.enqueue(2, 21, "f")
	n.enqueue(2, 30, "g")
	n.enqueue(2, 31, "h")
	assertNoSharedStorage(t, n, c, d)
	if l := n.Deliveries(2, 21); len(l) != 5 || l[0] != "a" || l[1] != "b" || l[2] != "c" || l[3] != "d" || l[4] != "f" {
		t.Errorf("rebased band = %v, want [a b c d f]", l)
	}
}

// BenchmarkNetworkSlot is one slot of a two-partition network that never
// heals, as a sim/partition cell drives it: three endpoints, one block and
// two batches sent, every endpoint drained. It allocates nothing once the
// drained lists circulate (gated in cmd/benchgate/gates.json).
func BenchmarkNetworkSlot(b *testing.B) {
	n := newNetwork[*int](Config{Nodes: 3, GST: Never, Delay: 1})
	n.SetPartition(1, 1)
	n.SetPartition(2, 1)
	block, batch := new(int), new(int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		slot := types.Slot(i)
		for to := NodeID(0); to < 3; to++ {
			for range n.Deliveries(to, slot) {
			}
		}
		n.Broadcast(NodeID(i%3), slot, block)
		n.Broadcast(0, slot, batch)
		n.Broadcast(1, slot, batch)
	}
}

// TestResetHoldsNoMessages: a reset network is the one New builds — no
// message of the last run pending, counters and partitions back to zero,
// the new endpoint count — and every list it kept, drained, pending or
// held for GST, sits cleared on a free list: its endpoint's, or the first
// endpoint's for an endpoint the reset dropped, the largest the held band
// takes first.
func TestResetHoldsNoMessages(t *testing.T) {
	n := newNet(3, 40, 1)
	n.SetPartition(2, 1)
	for at := types.Slot(0); at < 6; at++ {
		n.Broadcast(0, at, fmt.Sprint("m", at))
		n.Broadcast(2, at, fmt.Sprint("x", at))
	}
	n.Deliveries(0, 1) // lent, not yet recycled
	lists := 0
	for _, box := range n.inbox {
		lists += len(box)
	}
	held := cap(n.inbox[2][41])

	n.Reset(Config{Nodes: 2, GST: 40, Delay: 1})
	if len(n.inbox) != 2 || n.Partition(1) != 0 {
		t.Fatalf("reset network: %d endpoints, partition %d", len(n.inbox), n.Partition(1))
	}
	if sent, dropped := n.Stats(); sent != 0 || dropped != 0 || n.cfg.RetryDelay != 2 {
		t.Fatalf("reset network: sent %d, dropped %d, retry delay %d", sent, dropped, n.cfg.RetryDelay)
	}
	for to := NodeID(0); to < 2; to++ {
		if p := n.PendingFor(to); p != 0 {
			t.Fatalf("endpoint %d holds %d messages of the last run", to, p)
		}
	}
	spares := 0
	for _, pt := range n.ports {
		spares += len(pt.spare)
		for _, l := range pt.spare {
			if len(l) != 0 || slices.ContainsFunc(l[:cap(l)], func(m string) bool { return m != "" }) {
				t.Fatalf("a spare list still holds %q", l[:cap(l)])
			}
		}
	}
	if spares != lists+1 {
		t.Fatalf("%d spare lists, want the %d pending and the one lent", spares, lists+1)
	}
	n.Broadcast(0, 7, "held")
	if cap(n.inbox[1][8]) == held || cap(n.inbox[0][8]) == held {
		t.Fatal("a regular slot took the largest spare")
	}
	n.SetPartition(1, 1)
	n.Broadcast(1, 9, "held")
	if cap(n.inbox[0][41]) != held {
		t.Fatalf("the held band started on a list of capacity %d, want the largest spare's %d", cap(n.inbox[0][41]), held)
	}
}

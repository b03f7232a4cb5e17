package sim

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/types"
)

// batchList is one duty batch's validator list as a slot broadcast it.
type batchList struct {
	// members are the validators the batch casts for; list is the list it
	// was sent in, which also holds a member the batch omits.
	members, list []types.ValidatorIndex
	// fresh: no earlier batch of the run was sent in this list's storage.
	fresh bool
	// leftOut: a member with a block of its own in flight attested alone.
	leftOut bool
}

// batchLog records the duty batches of a run, epoch by epoch and slot by
// slot, and every list's storage with its contents as first sent.
type batchLog struct {
	epochs [][][]batchList // [epoch][slot offset][batch, by first member]
	sent   map[*types.ValidatorIndex]sentList
}

type sentList struct{ list, was []types.ValidatorIndex }

// ownsLiveEmbargo reports whether validator v has a block of cohort ci
// still in flight, by a scan of the live embargoes: the per-member check
// attest's binary searches replace, kept as their oracle.
func ownsLiveEmbargo(s *Simulation, ci int, v types.ValidatorIndex) bool {
	for _, e := range s.embargoes {
		if e.cohort == ci && e.producer == v {
			return true
		}
	}
	return false
}

// wantBatches is what attest must send at slot, derived from the duty rules
// alone: the slot's honest attesters grouped by (duty view, home cohort),
// without the members that have a block of their own in flight, ordered by
// first member.
func wantBatches(s *Simulation, slot types.Slot) []batchList {
	type group struct {
		view, home int
		batchList
	}
	var groups []group
	for _, v := range s.HonestIndices() {
		if s.AttestationSlot(v, slot.Epoch()) != slot {
			continue
		}
		view, home := s.dutyView[v], s.cohortOf[v]
		i := slices.IndexFunc(groups, func(g group) bool { return g.view == view && g.home == home })
		if i < 0 {
			groups = append(groups, group{view: view, home: home})
			i = len(groups) - 1
		}
		if ownsLiveEmbargo(s, view, v) {
			groups[i].leftOut = true
		} else {
			groups[i].members = append(groups[i].members, v)
		}
	}
	var out []batchList
	for _, g := range groups {
		if len(g.members) > 0 {
			out = append(out, g.batchList)
		}
	}
	slices.SortFunc(out, func(a, b batchList) int { return cmp.Compare(a.members[0], b.members[0]) })
	return out
}

// step runs one slot and logs the batches it broadcast, read off a copy of
// the network: a batch reaches its sender's own cohort one Delay after its
// slot, whatever the partitions. Each must be the list wantBatches derives,
// and a list that shares storage with an earlier one must equal it.
func (l *batchLog) step(t *testing.T, s *Simulation) {
	t.Helper()
	slot := s.Slot()
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	net := s.Net.Clone()
	var got []batchList
	var scratch []types.ValidatorIndex
	for _, c := range s.Cohorts() {
		for _, m := range net.Deliveries(network.NodeID(c.Index), slot+s.Cfg.Delay) {
			if b := m.Batch; m.Kind == BatchMessage && b.Data.Slot == slot && s.cohortOf[b.Validators[0]] == c.Index {
				got = append(got, batchList{members: slices.Clone(m.voters(&scratch)), list: b.Validators})
			}
		}
	}
	slices.SortFunc(got, func(a, b batchList) int { return cmp.Compare(a.members[0], b.members[0]) })
	want := wantBatches(s, slot)
	if len(got) != len(want) {
		t.Fatalf("slot %d sent %d batches, want %d", slot, len(got), len(want))
	}
	for k, g := range got {
		if !slices.Equal(g.members, want[k].members) {
			t.Fatalf("slot %d batch %d lists %v, want %v", slot, k, g.members, want[k].members)
		}
		first, seen := l.sent[&g.list[0]]
		if seen && !slices.Equal(first.was, g.list) {
			t.Fatalf("slot %d sent %v in the storage of an earlier, different list %v", slot, g.list, first.was)
		}
		if !seen {
			l.sent[&g.list[0]] = sentList{g.list, slices.Clone(g.list)}
		}
		want[k].members, want[k].list, want[k].fresh = g.members, g.list, !seen
	}
	e, off := int(slot.Epoch()), int(slot.PositionInEpoch())
	if off == 0 {
		l.epochs = append(l.epochs, nil)
	}
	l.epochs[e] = append(l.epochs[e], want)
}

// runLogged runs cfg for the given epochs, calling before (if set) ahead of
// each one, and checks at the end that no sent list was written into.
func runLogged(t *testing.T, cfg Config, epochs int, before func(s *Simulation, epoch int)) *batchLog {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := &batchLog{sent: map[*types.ValidatorIndex]sentList{}}
	for e := 0; e < epochs; e++ {
		if before != nil {
			before(s, e)
		}
		for range s.Cfg.Spec.SlotsPerEpoch {
			l.step(t, s)
		}
	}
	for _, sent := range l.sent {
		if !slices.Equal(sent.list, sent.was) {
			t.Fatalf("a list changed after it was sent: %v, was %v", sent.list, sent.was)
		}
	}
	return l
}

func leakConfig(n int) Config {
	return Config{
		Validators: n, Spec: types.DefaultSpec(),
		GST: network.Never, Delay: 1, Seed: 1, PartitionOf: halfSplit(n),
	}
}

// TestAttestBatchesReusedAcrossEpochs: a duty batch re-sends the list sent
// for the same bucket in the previous epoch when its members are unchanged,
// and is built fresh when they changed — shuffled duties, a duty view moved.
// A member attesting alone on its own in-flight block changes no list: the
// bucket's batch re-sends it, omitting that member. Every batch casts for
// the validators the duty rules give, and no sent list is ever written
// into, including by a restored copy stepping beside the original.
func TestAttestBatchesReusedAcrossEpochs(t *testing.T) {
	const epochs = 5
	t.Run("unshuffled", func(t *testing.T) {
		l := runLogged(t, leakConfig(256), epochs, nil)
		reused, alone := 0, 0
		for e := 1; e < epochs; e++ {
			for off, lists := range l.epochs[e] {
				prev := l.epochs[e-1][off]
				for k, b := range lists {
					if b.leftOut {
						alone++
						if len(b.list) != len(b.members)+1 {
							t.Errorf("epoch %d slot %d: batch %v, which left out a member with its own block in flight, was sent in list %v", e, off, b.members, b.list)
						}
					}
					if &b.list[0] != &prev[k].list[0] {
						t.Errorf("epoch %d slot %d batch %d: unchanged list %v was copied, not re-sent", e, off, k, b.list)
					}
					reused++
				}
			}
		}
		// Two partitions, so two buckets per slot.
		if reused < 2*32*(epochs-1)*3/4 {
			t.Errorf("only %d lists re-sent over %d epochs", reused, epochs-1)
		}
		if alone == 0 {
			t.Error("no proposer attested on its own in-flight block; the run does not test that case")
		}
	})

	t.Run("shuffled", func(t *testing.T) {
		cfg := leakConfig(1024)
		cfg.ShuffledDuties = true
		l := runLogged(t, cfg, epochs, nil)
		for e, slots := range l.epochs {
			for off, lists := range slots {
				for k, b := range lists {
					if !b.fresh {
						t.Errorf("epoch %d slot %d batch %d: shuffled list %v reuses storage", e, off, k, b.members)
					}
				}
			}
		}
	})

	t.Run("duty view moved", func(t *testing.T) {
		// Validator 3 (partition 0) acts from partition 1's view from epoch
		// 2 on: at its offset the bucket it left and the one it joined
		// change, and every other offset stays as it was.
		const moved, movedAt = 3, 2
		l := runLogged(t, leakConfig(256), epochs, func(s *Simulation, e int) {
			if e == movedAt {
				s.SetDutyView(moved, 255)
			}
		})
		lists := l.epochs[movedAt][moved]
		if len(lists) != 3 {
			t.Fatalf("slot %d of epoch %d sent %d batches, want 3 (the bucket left, the one joined, the other partition's)", moved, movedAt, len(lists))
		}
		for _, b := range lists {
			if b.members[0] < 128 && !b.fresh { // partition 0's two lists
				t.Errorf("changed list %v reuses storage", b.members)
			}
		}
		for off, lists := range l.epochs[movedAt] {
			if off == moved || slices.ContainsFunc(lists, leftOut) || slices.ContainsFunc(l.epochs[movedAt-1][off], leftOut) {
				continue
			}
			for k, b := range lists {
				if b.fresh {
					t.Errorf("slot %d batch %d: list %v untouched by the move was copied", off, k, b.members)
				}
			}
		}
	})

	for _, shuffled := range []bool{false, true} {
		cfg := leakConfig(256)
		cfg.ShuffledDuties = shuffled
		t.Run(fmt.Sprintf("copies step beside the original/shuffled=%v", shuffled), func(t *testing.T) {
			orig, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := orig.RunEpochs(3); err != nil {
				t.Fatal(err)
			}
			restored, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(orig.Snapshot()); err != nil {
				t.Fatal(err)
			}
			shell, err := NewShell(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := shell.Adopt(orig.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if restored.sentLists != nil || shell.sentLists != nil {
				t.Fatal("a copy starts with lists another simulation sent")
			}
			// The original re-sends (unshuffled) or replaces (shuffled) the
			// lists its in-flight messages carry while both copies deliver
			// those messages from their cloned networks.
			sims := []*Simulation{orig, restored, shell}
			hist := make([][]EpochMetrics, len(sims))
			errs := make([]error, len(sims))
			var wg sync.WaitGroup
			for i, s := range sims {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for e := 4; e <= 8 && errs[i] == nil; e++ {
						errs[i] = s.RunEpochs(1)
						hist[i] = append(hist[i], s.MetricsAt(types.Epoch(e)))
					}
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(sims); i++ {
				if !reflect.DeepEqual(hist[i], hist[0]) {
					t.Fatalf("copy %d diverged:\n  original: %+v\n  copy:     %+v", i, hist[0], hist[i])
				}
			}
		})
	}
}

func leftOut(b batchList) bool { return b.leftOut }

// TestAttestEmbargoLookups: with a delay over one slot, attest finds the
// bucket members with a block of their own in flight by binary search per
// live embargo, and must find exactly those the per-member scan finds —
// when two members of one bucket have blocks in flight at once (the batch
// then lists the others afresh), and when one member holds two live
// embargoes (it still attests alone once). The batches are checked against
// the duty rules by batchLog.step; this test checks the individual
// attestations, and that both cases occurred.
func TestAttestEmbargoLookups(t *testing.T) {
	cfg := Config{Validators: 64, Spec: types.DefaultSpec(), GST: network.Never, Delay: 8, Seed: 3}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := &batchLog{sent: map[*types.ValidatorIndex]sentList{}}
	twoOwners, twoEmbargoes := 0, 0
	for range 40 * cfg.Spec.SlotsPerEpoch {
		slot := s.Slot()
		l.step(t, s)
		if slot == 0 {
			continue
		}
		// The oracle: the slot's attesters that own a live embargo of
		// their duty view, by bucket, and how many embargoes each holds.
		var want []types.ValidatorIndex
		owners := map[[2]int]int{}
		for _, v := range s.HonestIndices() {
			view := s.dutyView[v]
			if s.AttestationSlot(v, slot.Epoch()) != slot || !ownsLiveEmbargo(s, view, v) {
				continue
			}
			want = append(want, v)
			owners[[2]int{view, s.cohortOf[v]}]++
			held := 0
			for _, e := range s.embargoes {
				if e.cohort == view && e.producer == v {
					held++
				}
			}
			if held > 1 {
				twoEmbargoes++
			}
		}
		for _, k := range owners {
			if k > 1 {
				twoOwners++
			}
		}
		var got []types.ValidatorIndex
		net := s.Net.Clone()
		for _, c := range s.Cohorts() {
			for _, m := range net.Deliveries(network.NodeID(c.Index), slot+s.Cfg.Delay) {
				if m.Kind == AttestationMessage && m.Batch.Data.Slot == slot && s.cohortOf[m.Batch.Validators[0]] == c.Index {
					got = append(got, m.Batch.Validators...)
				}
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("slot %d: %v attested alone, the per-member scan gives %v", slot, got, want)
		}
	}
	if twoOwners == 0 || twoEmbargoes == 0 {
		t.Fatalf("%d slots with two members' blocks in flight in one bucket, %d members holding two embargoes; the run tests neither case it is for", twoOwners, twoEmbargoes)
	}
	t.Logf("%d buckets with two owners, %d owners with two embargoes", twoOwners, twoEmbargoes)
}

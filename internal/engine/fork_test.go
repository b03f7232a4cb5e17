package engine

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// TestRunMetaMergedCarriesWarm pins the satellite contract of PR 7: the
// serving layers stamp their own duration/cache provenance via Merged, and
// that must carry — not clobber — the warm-start provenance a sweep cell
// arrived with.
func TestRunMetaMergedCarriesWarm(t *testing.T) {
	warm := &WarmMeta{Hit: true, BranchEpoch: 8, EpochsSaved: 8}
	m := RunMeta{DurationMS: 5, Cached: true}.Merged(&RunMeta{EpochsPerSec: 2, Warm: warm})
	if m.Warm != warm {
		t.Fatalf("Merged dropped warm provenance: %+v", m.Warm)
	}
	if m.DurationMS != 5 || !m.Cached || m.EpochsPerSec != 2 {
		t.Fatalf("Merged lost serving-layer fields: %+v", m)
	}

	// A layer that sets its own Warm keeps it.
	own := &WarmMeta{Hit: false}
	m = RunMeta{Warm: own}.Merged(&RunMeta{Warm: warm})
	if m.Warm != own {
		t.Fatalf("Merged overwrote the layer's own warm meta")
	}
}

// TestDeriveSeedContract pins the seed derivation warm-start depends on:
// DeriveSeed deliberately excludes the post-branch dimensions (rate, gst),
// so grid cells differing only there share the pre-branch RNG stream and
// can fan out from one snapshot. A future field added to the derivation
// would silently break snapshot reuse — this test is the tripwire.
func TestDeriveSeedContract(t *testing.T) {
	g := Grid{
		Scenario: "sim/gst",
		P0:       []float64{0.4, 0.6},
		Seeds:    []int64{7},
		Horizons: []int{10, 12},
		Rates:    []float64{0, 0.1},
		GSTs:     []int{2, 4},
		N:        100,
	}
	cells := g.Cells()
	type preKey struct {
		p0      float64
		horizon int
	}
	seeds := make(map[preKey]int64)
	for _, c := range cells {
		k := preKey{c.Params.P0, c.Params.Horizon}
		if s, ok := seeds[k]; ok {
			// Same pre-branch coordinates, differing only in rate/gst:
			// the seed must be shared.
			if c.Params.Seed != s {
				t.Fatalf("cells at %+v differ in seed across rate/gst: %d vs %d", k, s, c.Params.Seed)
			}
		} else {
			seeds[k] = c.Params.Seed
		}
	}
	// Distinct pre-branch coordinates must not collide (independence).
	byCoord := make(map[int64]preKey)
	for k, s := range seeds {
		if prev, ok := byCoord[s]; ok {
			t.Fatalf("seed %d collides across coordinates %+v and %+v", s, prev, k)
		}
		byCoord[s] = k
	}
	// And the derivation itself: rate and gst are not inputs at all.
	if DeriveSeed(1, 0.5, 0.2, "m", 10) != DeriveSeed(1, 0.5, 0.2, "m", 10) {
		t.Fatal("DeriveSeed is not deterministic")
	}
	if DeriveSeed(1, 0.5, 0.2, "m", 10) == DeriveSeed(1, 0.5, 0.2, "m", 11) {
		t.Fatal("horizon should change the derived seed")
	}
}

// TestForkKeys: prefix keys exclude exactly the post-branch dimensions.
func TestForkKeys(t *testing.T) {
	s, _ := Default.Lookup(ScenarioSimGST)
	fs := s.(CheckpointableScenario)
	base := Params{P0: 0.5, N: 100, Horizon: 16, Seed: 3, GST: 4}
	key1, branch1, ok := fs.Fork(base)
	if !ok || branch1 != 4 {
		t.Fatalf("Fork(%v) = %q, %d, %t", base, key1, branch1, ok)
	}
	// Different gst/horizon: same key, different branch.
	other := base
	other.GST, other.Horizon = 7, 20
	key2, branch2, ok := fs.Fork(other)
	if !ok || key2 != key1 {
		t.Errorf("gst/horizon leaked into the gst prefix key: %q vs %q", key2, key1)
	}
	if branch2 != 7 {
		t.Errorf("branch = %d, want 7", branch2)
	}
	// Different seed: different key.
	reseeded := base
	reseeded.Seed = 4
	key3, _, _ := fs.Fork(reseeded)
	if key3 == key1 {
		t.Errorf("seed missing from the prefix key")
	}
	// gst=0 (no partition) has no prefix to share.
	flat := base
	flat.GST = 0
	if _, _, ok := fs.Fork(flat); ok {
		t.Errorf("gst=0 should not be forkable")
	}
}

// TestSimRowContract is the CheckpointableScenario contract, checked for every row of simRows — a new row is covered by
// adding it to the table, nothing else.
// For every split 0 < e1 < e2 <= branch, extending a prefix writes the
// same snapshot frame bytes as simulating straight from genesis; and
// resuming from any prefix after a round trip through the prefix codec
// yields the cold Run result. And finishing is read-only: a cell
// that ends at epoch k is read off a prefix advanced there without a
// snapshot (what the sweep spine lends its stops), equals its cold run, and
// leaves the prefix extending to the same bytes as if nobody had looked.
func TestSimRowContract(t *testing.T) {
	ctx := context.Background()
	// One small parameter point every row accepts.
	point := Params{P0: 0.5, Beta0: 0.25, N: 16, Horizon: 9, Seed: 1, Sample: 2, Rate: 0.1, GST: 6}
	frame := func(t *testing.T, pre *Prefix) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := pre.Snap.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for i := range simRows {
		sc := &simScenario{row: &simRows[i]}
		t.Run(sc.Name()+"/"+shippedSim, func(t *testing.T) {
			p := point.WithDefaults(sc.Defaults())
			_, branch, ok := sc.Fork(p)
			if !ok || branch < 2 {
				t.Fatalf("Fork(%v) = branch %d, ok %t; the contract point must fork", p, branch, ok)
			}
			cold, err := sc.Run(ctx, p)
			if err != nil {
				t.Fatal(err)
			}

			straight := make([]*Prefix, branch+1) // straight[k] = RunTo(nil, k)
			for k := 1; k <= branch; k++ {
				if straight[k], err = sc.RunTo(ctx, p, nil, k); err != nil {
					t.Fatal(err)
				}
			}
			for e1 := 1; e1 < branch; e1++ {
				for e2 := e1 + 1; e2 <= branch; e2++ {
					// The first extension of straight[e1] claims its live
					// simulation, the later ones restore its snapshot.
					split, err := sc.RunTo(ctx, p, straight[e1], e2)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(frame(t, split), frame(t, straight[e2])) {
						t.Errorf("RunTo(RunTo(nil, %d), %d) wrote a different frame than RunTo(nil, %d)", e1, e2, e2)
					}
				}
			}
			// The lent read, one epoch short of the branch (every row
			// accepts the point at that horizon).
			stop := p
			stop.Horizon = branch - 1
			coldStop, err := sc.Run(ctx, stop)
			if err != nil {
				t.Fatal(err)
			}
			lent, err := sc.advanceTo(ctx, p, nil, stop.Horizon)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.ResumeFrom(ctx, lent, stop)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.WithoutMeta(), coldStop.WithoutMeta()) {
				t.Errorf("the stop read off the lent epoch-%d prefix diverged from its cold run:\n  lent: %+v\n  cold: %+v", stop.Horizon, res.WithoutMeta(), coldStop.WithoutMeta())
			}
			if lent.Snap != nil || lent.live() == nil {
				t.Fatalf("finishing the lent prefix froze it (snap %v) or took its simulation", lent.Snap != nil)
			}
			extended, err := sc.RunTo(ctx, p, lent, branch)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame(t, extended), frame(t, straight[branch])) {
				t.Errorf("extending the epoch-%d prefix after a stop read it wrote a different frame than RunTo(nil, %d)", stop.Horizon, branch)
			}

			for k := 1; k <= branch; k++ {
				var blob bytes.Buffer
				if err := sc.EncodePrefix(&blob, straight[k]); err != nil {
					t.Fatal(err)
				}
				dec, err := sc.DecodePrefix(&blob)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sc.ResumeFrom(ctx, dec, p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.WithoutMeta(), cold.WithoutMeta()) {
					t.Errorf("resume from the decoded epoch-%d prefix diverged from the cold run:\n  resumed: %+v\n  cold:    %+v", k, res.WithoutMeta(), cold.WithoutMeta())
				}
			}
		})
	}
}

// TestForkCopySharesNothing: a sweep fork's copy of the spine (forkCopy)
// shares no state with it. It starts as the spine's frame; three epochs of
// the spine then leave the copy's frame as it was, and three epochs of the
// copy leave the spine's. Checked on a sim/gst prefix run unhealed under
// network.FarFuture, and on sim/semiactive, whose adversary instance the
// copy must not share: its gait starts at epoch 7, inside the spine's three
// epochs, and the frame carries the gait.
func TestForkCopySharesNothing(t *testing.T) {
	ctx := context.Background()
	frame := func(t *testing.T, pre *Prefix) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := pre.live().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	step := func(t *testing.T, pre *Prefix) {
		t.Helper()
		if err := pre.live().RunEpochs(3); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []Cell{
		{Scenario: ScenarioSimGST, Params: Params{P0: 0.5, N: 24, GST: 9, Horizon: 12, Seed: 1}},
		{Scenario: ScenarioSimSemiActive, Params: Params{Beta0: 0.33, N: 30, Horizon: 12, Seed: 1}},
	} {
		t.Run(c.Scenario, func(t *testing.T) {
			sc, _ := Default.Lookup(c.Scenario)
			cs := sc.(CheckpointableScenario)
			p := c.Params.WithDefaults(sc.Defaults())
			spine, err := cs.advanceTo(ctx, p, nil, 5)
			if err != nil {
				t.Fatal(err)
			}
			own, _, err := cs.forkCopy(p, spine)
			if err != nil {
				t.Fatal(err)
			}
			copied := frame(t, own)
			if !bytes.Equal(copied, frame(t, spine)) {
				t.Fatal("the copy's frame differs from the spine's it was taken from")
			}
			step(t, spine)
			stepped := frame(t, spine)
			if bytes.Equal(stepped, copied) {
				t.Fatal("three epochs of the spine left its frame as it was; the check pins nothing")
			}
			if !bytes.Equal(frame(t, own), copied) {
				t.Fatal("stepping the spine moved the copy's state")
			}
			step(t, own)
			if !bytes.Equal(frame(t, spine), stepped) {
				t.Fatal("stepping the copy moved the spine's state")
			}
		})
	}
}

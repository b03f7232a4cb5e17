package beacon

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/attestation"
	"repro/internal/blocktree"
	"repro/internal/codec"
	"repro/internal/forkchoice"
	"repro/internal/types"
)

// boundaryDrive steps one node through epochs of votes and checks every
// boundary against a clone taken just before it: a clone holds no tally
// bounds and no carried stake total, so it tallies every window epoch and
// sums its registry afresh. The node may be swapped, before a boundary, for
// its own frame decoded into a node that has run before (decodeEvery).
type boundaryDrive struct {
	t           *testing.T
	node, spare *Node
	decodeEvery types.Epoch
	tip         types.Root
	// rows and refRows sum the window-tally rows the node and its
	// references swept; slashings counts the batches that slashed.
	rows, refRows, slashings int
}

func newBoundaryDrive(t *testing.T, validators int, decodeEvery types.Epoch) *boundaryDrive {
	spec := types.CompressedSpec(1 << 12)
	return &boundaryDrive{
		t:           t,
		node:        NewNodeWithForkChoice(validators, spec, genesis(), new(forkchoice.ProtoArray)),
		spare:       NewNodeWithForkChoice(validators, spec, genesis(), new(forkchoice.ProtoArray)),
		decodeEvery: decodeEvery,
		tip:         genesis(),
	}
}

// block extends the chain with epoch e's first block.
func (d *boundaryDrive) block(e types.Epoch) {
	b := blocktree.Block{Slot: e.StartSlot(), Root: types.RootFromUint64(uint64(e) + 1000), Parent: d.tip}
	d.node.ReceiveBlock(b)
	d.tip = b.Root
}

// data is a vote of epoch e for the tip, from the given source.
func (d *boundaryDrive) data(e types.Epoch, source types.Checkpoint) attestation.Data {
	target, err := d.node.Tree.CheckpointFor(d.tip, e)
	if err != nil {
		d.t.Fatal(err)
	}
	return attestation.Data{Slot: e.StartSlot() + 1, Head: d.tip, Source: source, Target: target}
}

// vote delivers one batch, and checks the carried total after a batch that
// slashed.
func (d *boundaryDrive) vote(data attestation.Data, voters []types.ValidatorIndex) {
	d.t.Helper()
	d.node.ReceiveBatch(data, voters)
	if d.node.EnforceSlashing && len(d.node.batchEvidence) > 0 {
		d.slashings++
		d.checkTotal(fmt.Sprintf("slashing batch of epoch %d", data.Target.Epoch))
	}
}

func (d *boundaryDrive) checkTotal(at string) {
	d.t.Helper()
	if got, want := d.node.TotalStake(), d.node.Registry.TotalStake(); got != want {
		d.t.Fatalf("%s: carried total %d, registry sums %d", at, got, want)
	}
}

// boundary runs the boundary at the start of epoch e on the node and on a
// clone, and compares what they report and hold after.
func (d *boundaryDrive) boundary(e types.Epoch) EpochReport {
	d.t.Helper()
	if d.decodeEvery > 0 && e%d.decodeEvery == 0 {
		var frame bytes.Buffer
		enc := codec.NewEncoder(&frame)
		if d.node.Walk(enc); enc.Err() != nil {
			d.t.Fatal(enc.Err())
		}
		dec := codec.NewDecoder(bytes.NewReader(frame.Bytes()))
		if d.spare.Walk(dec); dec.Err() != nil {
			d.t.Fatal(dec.Err())
		}
		d.node, d.spare = d.spare, d.node
	}
	ref := d.node.Clone()
	rows, refRows := d.node.Work().TallyRows, ref.Work().TallyRows
	got, err := d.node.ProcessEpochBoundary(e)
	if err != nil {
		d.t.Fatal(err)
	}
	want, err := ref.ProcessEpochBoundary(e)
	if err != nil {
		d.t.Fatal(err)
	}
	d.rows += d.node.Work().TallyRows - rows
	d.refRows += ref.Work().TallyRows - refRows
	if !reflect.DeepEqual(got, want) {
		d.t.Fatalf("boundary %d reports\n  %+v\nwhere tallying every window epoch reports\n  %+v", e, got, want)
	}
	n, r := d.node.FFG, ref.FFG
	if n.LatestJustified() != r.LatestJustified() || n.Finalized() != r.Finalized() ||
		!reflect.DeepEqual(n.Justifieds(), r.Justifieds()) || n.EpochsSinceFinality(e) != r.EpochsSinceFinality(e) {
		d.t.Fatalf("boundary %d: FFG state justified %v finalized %v, want %v and %v",
			e, n.LatestJustified(), n.Finalized(), r.LatestJustified(), r.Finalized())
	}
	if !reflect.DeepEqual(*d.node.Registry.Columns(), *ref.Registry.Columns()) {
		d.t.Fatalf("boundary %d: registries differ", e)
	}
	d.checkTotal(fmt.Sprintf("boundary %d", e))
	return got
}

func span(lo, hi int) []types.ValidatorIndex {
	vs := make([]types.ValidatorIndex, 0, hi-lo)
	for v := lo; v < hi; v++ {
		vs = append(vs, types.ValidatorIndex(v))
	}
	return vs
}

// TestSkippedTalliesAreExact: a boundary that skips the window epochs its
// last tallies bound below 2/3 of the stake, and reads the stake total the
// incentive sweep carried, reports and holds exactly what one that tallies
// every window epoch and sums its registry reports and holds — at every
// boundary of four phases: a leak run past the crossing where 60 % of the
// validators' stake passes 2/3 again, late votes that bring two window
// epochs over 2/3 (a heal), double votes slashed under EnforceSlashing,
// and equivocations that fill the pool's second column. Run in place and
// with the node swapped before every boundary for its frame decoded into a
// node that has run before.
func TestSkippedTalliesAreExact(t *testing.T) {
	for _, every := range []types.Epoch{0, 1} {
		t.Run(fmt.Sprintf("decode every %d", every), func(t *testing.T) {
			const n = 60
			d := newBoundaryDrive(t, n, every)
			e := types.Epoch(1)
			next := func() EpochReport {
				e++
				return d.boundary(e)
			}

			// Phase 1: 36 of 60 vote. The leak starts, drains the 24
			// silent validators, and the voters' stake crosses 2/3.
			crossed := types.Epoch(0)
			for crossed == 0 || e < crossed+4 {
				if e > 400 {
					t.Fatal("the leak never brought the voters over 2/3")
				}
				d.block(e)
				d.vote(d.data(e, d.node.FFG.LatestJustified()), span(0, 36))
				if rep := next(); crossed == 0 && len(rep.FFG.NewlyJustified) > 0 {
					if !rep.InLeak {
						t.Fatalf("epoch %d justified before any leak", rep.Epoch)
					}
					crossed = rep.Epoch
				}
			}

			// Phase 2: 30 vote on time for three epochs, then 15 more vote
			// late for the middle two, inside the window.
			heal := e
			var late [3]attestation.Data
			for k := range late {
				d.block(e)
				late[k] = d.data(e, d.node.FFG.LatestJustified())
				d.vote(late[k], span(0, 30))
				if rep := next(); len(rep.FFG.NewlyJustified) > 0 {
					t.Fatalf("epoch %d justified with half the validators voting", rep.Epoch)
				}
			}
			d.block(e)
			d.vote(d.data(e, d.node.FFG.LatestJustified()), span(0, 30))
			d.vote(late[1], span(30, 45))
			d.vote(late[2], span(30, 45))
			if rep := next(); !slices.Contains(rep.FFG.NewlyJustified, late[1].Target) || !slices.Contains(rep.FFG.NewlyJustified, late[2].Target) {
				t.Fatalf("late votes for epochs %d and %d justified %v", heal+1, heal+2, rep.FFG.NewlyJustified)
			}

			// Phase 3: 45 vote, and five of them also vote for a
			// sibling head of the same target: slashed on sight.
			d.node.EnforceSlashing = true
			for range 3 {
				d.block(e)
				src := d.node.FFG.LatestJustified()
				d.vote(d.data(e, src), span(0, 45))
				other := d.data(e, src)
				other.Head = types.RootFromUint64(uint64(e) + 5000)
				d.vote(other, span(40+int(e)%5, 45))
				next()
			}
			if d.slashings == 0 {
				t.Fatal("no batch slashed")
			}

			// Phase 4: ten validators also vote from an older source, which
			// fills the second column without slashing.
			d.node.EnforceSlashing = false
			for range 3 {
				d.block(e)
				d.vote(d.data(e, d.node.FFG.LatestJustified()), span(0, 45))
				d.vote(d.data(e, types.Checkpoint{Root: genesis()}), span(0, 10))
				if ev := d.node.Pool.Retained(); !ev[len(ev)-1].Equivocated() {
					t.Fatalf("epoch %d: no equivocation recorded", e)
				}
				next()
			}
			if every == 0 && 2*d.rows > d.refRows {
				t.Errorf("the node swept %d tally rows, tallying every window epoch %d: it skipped little", d.rows, d.refRows)
			}
		})
	}
}

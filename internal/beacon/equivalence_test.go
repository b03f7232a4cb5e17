package beacon

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/attestation"
	"repro/internal/codec"
	"repro/internal/forkchoice"
	"repro/internal/slashing"
	"repro/internal/types"
	"repro/internal/validator"
)

var writeFuzzSeeds = flag.Bool("write-fuzz-seeds", false,
	"rewrite the checked-in seed corpora of FuzzDecodePool and FuzzDecodeDetector from this test's stream")

// refVotes is the storage the interned pool replaced, kept as the
// reference: every vote stored whole, once per validator, in per-epoch
// per-validator lists — with dedup, offense search and prune done by value.
// Like the product it keeps one copy of the votes; the offense search reads
// it under the rule the detector documents: of the held votes a new one
// conflicts with, the lowest target epoch, then arrival within that epoch.
type refVotes struct {
	pool     map[types.Epoch][][]attestation.Data
	slashed  []bool
	evidence []slashing.Evidence
}

// earliestConflict scans per-epoch vote columns, ascending by target epoch
// and in arrival order within one, for the first vote of v that d conflicts
// with.
func earliestConflict(epochs []types.Epoch, votes func(types.Epoch) [][]attestation.Data, v types.ValidatorIndex, d attestation.Data) (attestation.Data, slashing.Kind) {
	for _, e := range epochs {
		for _, prev := range votesOf(votes(e), int(v)) {
			if kind := slashing.Conflict(prev, d); kind != slashing.None {
				return prev, kind
			}
		}
	}
	return attestation.Data{}, slashing.None
}

// receive is the old ReceiveAttestation. It reports whether the pool took
// the vote as new.
func (m *refVotes) receive(v types.ValidatorIndex, d attestation.Data) bool {
	col := m.pool[d.Target.Epoch]
	for len(col) <= int(v) {
		col = append(col, nil)
	}
	m.pool[d.Target.Epoch] = col
	for _, have := range col[v] {
		if have == d {
			return false
		}
	}
	for len(m.slashed) <= int(v) {
		m.slashed = append(m.slashed, false)
	}
	if !m.slashed[v] {
		epochs := make([]types.Epoch, 0, len(m.pool))
		for e := range m.pool {
			epochs = append(epochs, e)
		}
		slices.Sort(epochs)
		held := func(e types.Epoch) [][]attestation.Data { return m.pool[e] }
		if prev, kind := earliestConflict(epochs, held, v, d); kind != slashing.None {
			m.evidence = append(m.evidence, slashing.Evidence{Validator: v, Kind: kind, First: prev, Second: d})
			m.slashed[v] = true
		}
	}
	col[v] = append(col[v], d)
	return true
}

func (m *refVotes) prune(e types.Epoch) {
	for epoch := range m.pool {
		if epoch < e {
			delete(m.pool, epoch)
		}
	}
}

// naiveEvidence is what a scan of the node's own pool — Pool.VotesForEpoch
// over the retained epochs — reports for a value the pool has just taken as
// new from the validators in fresh, given who was marked before.
func naiveEvidence(n *Node, d attestation.Data, fresh []types.ValidatorIndex, marked func(types.ValidatorIndex) bool) []slashing.Evidence {
	var epochs []types.Epoch
	for _, ev := range n.Pool.Retained() {
		epochs = append(epochs, ev.Epoch())
	}
	var out []slashing.Evidence
	for _, v := range fresh {
		if marked(v) {
			continue
		}
		if prev, kind := earliestConflict(epochs, n.Pool.VotesForEpoch, v, d); kind != slashing.None {
			out = append(out, slashing.Evidence{Validator: v, Kind: kind, First: prev, Second: d})
		}
	}
	return out
}

// tally is the old AppendLinkTally: ascending validators, each one's votes
// in arrival order, a row appended when a link first gets weight.
func (m *refVotes) tally(e types.Epoch, stake func(types.ValidatorIndex) types.Gwei) []attestation.LinkWeight {
	var rows []attestation.LinkWeight
	for v, datas := range m.pool[e] {
		w := stake(types.ValidatorIndex(v))
		if w == 0 {
			continue
		}
		var mine []attestation.Link
	votes:
		for _, d := range datas {
			l := attestation.Link{Source: d.Source, Target: d.Target}
			for _, seen := range mine {
				if seen == l {
					continue votes
				}
			}
			mine = append(mine, l)
			i := 0
			for i < len(rows) && rows[i].Link != l {
				i++
			}
			if i == len(rows) {
				rows = append(rows, attestation.LinkWeight{Link: l})
			}
			rows[i].Weight += w
		}
	}
	return rows
}

func encodeNode(t *testing.T, n *Node) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := codec.NewEncoder(&buf)
	if n.Walk(c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	return buf.Bytes()
}

// decodeNode walks frame into a new node.
func decodeNode(frame []byte) (*Node, error) {
	n, c := new(Node), codec.NewDecoder(bytes.NewReader(frame))
	n.Walk(c)
	return n, c.Err()
}

// TestInternedVotesMatchReference drives one seeded vote stream —
// duplicates, double votes, surround votes, late votes for target epochs
// already pruned, three and more distinct votes per validator per epoch,
// with a real epoch boundary (and its prune) between epochs — into three
// consumers: a node fed batches, a node fed the same votes one at a time,
// and the reference model above. Everything the old storage let a caller
// observe must agree: which votes were new, each validator's votes in
// order, the link tally rows in order, the evidence sequence and the
// detector's marks; what the detector reports for a batch must be what a
// naive scan of the node's own pool reports; and the two nodes must
// serialize to the same bytes, which decode and re-encode to themselves.
// Those bytes are no longer the ones earlier builds wrote:
// testdata/node-pr13-stream1.frame, PR 13's frame for the first stream's
// final node, still carries a detector's copy of the votes and must be
// rejected as corrupt.
func TestInternedVotesMatchReference(t *testing.T) {
	const validators = 24
	stake := func(v types.ValidatorIndex) types.Gwei {
		if v%5 == 0 {
			return 0 // rows must open at the first validator WITH stake
		}
		return types.Gwei(10 + v)
	}
	// Validators from `careful` up never cast two different votes for one
	// target epoch, so what they get reported for is a surround vote.
	const careful = validators * 2 / 3
	var poolSeeds, detectorSeeds [][]byte
	reported := map[slashing.Kind]int{}
	mostVotes := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batched := NewNodeWithForkChoice(validators, types.DefaultSpec(), genesis(), new(forkchoice.ProtoArray))
		single := NewNodeWithForkChoice(validators, types.DefaultSpec(), genesis(), new(forkchoice.ProtoArray))
		batched.EnforceSlashing, single.EnforceSlashing = true, true
		// The evidence each stream's batches produced, read off the node's
		// per-batch scratch right after each call.
		var batchedEvidence, singleEvidence []slashing.Evidence
		ref := &refVotes{pool: map[types.Epoch][][]attestation.Data{}}
		root := func() types.Root { return types.RootFromUint64(uint64(1 + rng.Intn(3))) }
		cast := map[[2]uint64]attestation.Data{} // (careful validator, target epoch) -> its one vote

		for epoch := types.Epoch(1); epoch <= 24; epoch++ {
			// A handful of candidate values per epoch, drawn from a few
			// branches and slots: redelivery, shared links under distinct
			// values, and many-way equivocation all come up.
			var candidates []attestation.Data
			for i := 0; i < 7; i++ {
				target := epoch
				switch rng.Intn(8) {
				case 0:
					target = epoch + types.Epoch(1+rng.Intn(2)) // wide span: surrounds later votes
				case 1, 2:
					if back := types.Epoch(1 + rng.Intn(12)); back < epoch {
						target = epoch - back // late, possibly below the prune watermark
					}
				}
				d := attestation.Data{
					Slot:   target.StartSlot() + types.Slot(rng.Intn(3)),
					Head:   root(),
					Source: types.Checkpoint{Epoch: types.Epoch(rng.Intn(int(target))), Root: root()},
					Target: types.Checkpoint{Epoch: target, Root: root()},
				}
				candidates = append(candidates, d)
			}
			for step := 0; step < 12; step++ {
				d := candidates[rng.Intn(len(candidates))]
				var voters []types.ValidatorIndex // unordered, repeats allowed
				for i := rng.Intn(validators); i >= 0; i-- {
					v := types.ValidatorIndex(rng.Intn(validators))
					if key := [2]uint64{uint64(v), uint64(d.Target.Epoch)}; v >= careful {
						if have, voted := cast[key]; voted && have != d {
							continue
						}
						cast[key] = d
					}
					voters = append(voters, v)
				}

				var wantNew []types.ValidatorIndex
				for _, v := range voters {
					if ref.receive(v, d) {
						wantNew = append(wantNew, v)
					}
				}
				marked := map[types.ValidatorIndex]bool{}
				for _, v := range voters {
					marked[v] = batched.Detector.Slashed(v)
				}
				batched.ReceiveBatch(d, voters)
				if got := batched.batchNew; !slices.Equal(got, wantNew) {
					t.Fatalf("seed %d epoch %d step %d: batch took %v as new, reference %v", seed, epoch, step, got, wantNew)
				}
				wasMarked := func(v types.ValidatorIndex) bool { return marked[v] }
				if got, want := batched.batchEvidence, naiveEvidence(batched, d, wantNew, wasMarked); !slices.Equal(got, want) {
					t.Fatalf("seed %d epoch %d step %d: detector reports %v, a scan of the pool %v", seed, epoch, step, got, want)
				}
				batchedEvidence = append(batchedEvidence, batched.batchEvidence...)
				for _, v := range voters {
					single.ReceiveAttestation(attestation.Attestation{Validator: v, Data: d})
					singleEvidence = append(singleEvidence, single.batchEvidence...)
				}
			}
			compareToReference(t, fmt.Sprintf("seed %d epoch %d batched", seed, epoch), batched, ref, validators, stake)
			compareToReference(t, fmt.Sprintf("seed %d epoch %d single", seed, epoch), single, ref, validators, stake)
			compareEvidence(t, fmt.Sprintf("seed %d epoch %d batched", seed, epoch), batchedEvidence, ref)
			compareEvidence(t, fmt.Sprintf("seed %d epoch %d single", seed, epoch), singleEvidence, ref)

			for _, n := range []*Node{batched, single} {
				if _, err := n.ProcessEpochBoundary(epoch + 1); err != nil {
					t.Fatal(err)
				}
			}
			if epoch+1 > 8 {
				ref.prune(epoch + 1 - 8)
			}
			compareToReference(t, fmt.Sprintf("seed %d after boundary %d batched", seed, epoch+1), batched, ref, validators, stake)

			frame := encodeNode(t, batched)
			if !bytes.Equal(frame, encodeNode(t, single)) {
				t.Fatalf("seed %d epoch %d: batch and one-at-a-time ingestion serialize differently", seed, epoch)
			}
			decoded, err := decodeNode(frame)
			if err != nil {
				t.Fatalf("seed %d epoch %d: frame does not decode: %v", seed, epoch, err)
			}
			if !bytes.Equal(encodeNode(t, decoded), frame) {
				t.Fatalf("seed %d epoch %d: decoded frame re-encodes differently", seed, epoch)
			}
			compareToReference(t, fmt.Sprintf("seed %d epoch %d decoded", seed, epoch), decoded, ref, validators, stake)
			// A clone and a decoded node must go on exactly like the
			// original; swap them in for the rest of the stream. Neither
			// carries the evidence history, which lives in this test.
			if epoch%8 == 0 {
				batched, single = batched.Clone(), decoded
			}
		}
		for _, ev := range ref.evidence {
			reported[ev.Kind]++
		}
		for _, col := range ref.pool {
			for _, votes := range col {
				mostVotes = max(mostVotes, len(votes))
			}
		}
		if seed == 1 {
			parent, err := os.ReadFile("testdata/node-pr13-stream1.frame")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeNode(parent); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("testdata/node-pr13-stream1.frame, an older codec's frame of the first stream's final node, was not rejected as corrupt (err %v)", err)
			}
		}
		if seed <= 2 {
			var pool, detector bytes.Buffer
			batched.Pool.Walk(codec.NewEncoder(&pool))
			batched.Detector.Walk(codec.NewEncoder(&detector))
			poolSeeds = append(poolSeeds, pool.Bytes())
			detectorSeeds = append(detectorSeeds, detector.Bytes())
		}
	}
	if reported[slashing.DoubleVote] == 0 || reported[slashing.SurroundVote] == 0 || mostVotes < 3 {
		t.Fatalf("the streams no longer cover what this test is for: evidence %v, at most %d votes per validator per epoch",
			reported, mostVotes)
	}
	if *writeFuzzSeeds {
		writeCorpus(t, "../attestation/testdata/fuzz/FuzzDecodePool", poolSeeds)
		writeCorpus(t, "../slashing/testdata/fuzz/FuzzDecodeDetector", detectorSeeds)
	}
}

// TestEvidenceNamesLowestTargetEpoch is the one place the evidence rule
// differs from "the earliest recorded vote": a validator's vote for a higher
// target epoch arrives before its vote for a lower one, neither conflicts
// with the other, and a third surrounds both. The offense is proved against
// the lower target epoch — what any observer holding these three votes
// reports, whatever order it heard the first two in.
func TestEvidenceNamesLowestTargetEpoch(t *testing.T) {
	span := func(source, target types.Epoch) attestation.Data {
		return attestation.Data{
			Slot:   target.StartSlot(),
			Head:   types.RootFromUint64(uint64(target)),
			Source: types.Checkpoint{Epoch: source, Root: types.RootFromUint64(uint64(source))},
			Target: types.Checkpoint{Epoch: target, Root: types.RootFromUint64(uint64(target))},
		}
	}
	high, low, wide := span(3, 10), span(2, 8), span(0, 12)
	const v = types.ValidatorIndex(2)
	for _, order := range [][2]attestation.Data{{high, low}, {low, high}} {
		batched := NewNodeWithForkChoice(4, types.DefaultSpec(), genesis(), new(forkchoice.ProtoArray))
		single := NewNodeWithForkChoice(4, types.DefaultSpec(), genesis(), new(forkchoice.ProtoArray))
		ref := &refVotes{pool: map[types.Epoch][][]attestation.Data{}}
		var batchedEvidence, singleEvidence []slashing.Evidence
		for _, d := range []attestation.Data{order[0], order[1], wide} {
			batched.ReceiveBatch(d, []types.ValidatorIndex{v, 3})
			batchedEvidence = append(batchedEvidence, batched.batchEvidence...)
			single.ReceiveAttestation(attestation.Attestation{Validator: v, Data: d})
			singleEvidence = append(singleEvidence, single.batchEvidence...)
			ref.receive(v, d)
		}
		want := slashing.Evidence{Validator: v, Kind: slashing.SurroundVote, First: low, Second: wide}
		if got := batchedEvidence; len(got) != 2 || got[0] != want {
			t.Fatalf("batched, %d then %d: evidence %v, want %v first", order[0].Target.Epoch, order[1].Target.Epoch, got, want)
		}
		if got := singleEvidence; len(got) != 1 || got[0] != want {
			t.Fatalf("single, %d then %d: evidence %v, want %v", order[0].Target.Epoch, order[1].Target.Epoch, got, want)
		}
		if len(ref.evidence) != 1 || ref.evidence[0] != want {
			t.Fatalf("reference, %d then %d: evidence %v, want %v", order[0].Target.Epoch, order[1].Target.Epoch, ref.evidence, want)
		}
	}
}

// TestBatchScratchSurvivesCloneAndCodec: a node cloned mid-run and a node
// encoded and decoded mid-run each slash, on the next equivocating batch,
// exactly the validators the original slashes, with the same evidence, and
// none of them shares the original's per-batch scratch: a batch one of them
// takes leaves the others' scratch as it was.
func TestBatchScratchSurvivesCloneAndCodec(t *testing.T) {
	vote := func(target, head uint64) attestation.Data {
		return attestation.Data{
			Slot:   types.Epoch(target).StartSlot(),
			Head:   types.RootFromUint64(head),
			Source: types.Checkpoint{Root: genesis()},
			Target: types.Checkpoint{Epoch: types.Epoch(target), Root: types.RootFromUint64(head)},
		}
	}
	orig := NewNodeWithForkChoice(8, types.DefaultSpec(), genesis(), new(forkchoice.ProtoArray))
	orig.EnforceSlashing = true
	orig.ReceiveBatch(vote(1, 1), []types.ValidatorIndex{1, 2, 3, 4})
	orig.ReceiveBatch(vote(1, 2), []types.ValidatorIndex{1}) // mid-run: the scratch holds evidence
	if len(orig.batchEvidence) != 1 || !orig.Detector.Slashed(1) {
		t.Fatalf("the planted double vote gave evidence %v", orig.batchEvidence)
	}
	clone := orig.Clone()
	decoded, err := decodeNode(encodeNode(t, orig))
	if err != nil {
		t.Fatal(err)
	}

	equivocate, voters := vote(1, 3), []types.ValidatorIndex{2, 3, 5}
	orig.ReceiveBatch(equivocate, voters)
	want := slices.Clone(orig.batchEvidence)
	if len(want) != 2 || want[0].Validator != 2 || want[1].Validator != 3 {
		t.Fatalf("the original's equivocating batch gave evidence %v, want validators 2 and 3", want)
	}
	for _, tc := range []struct {
		name string
		n    *Node
	}{{"clone", clone}, {"decoded", decoded}} {
		if !tc.n.EnforceSlashing {
			t.Fatalf("%s: enforcement lost", tc.name)
		}
		tc.n.ReceiveBatch(equivocate, voters)
		if got := tc.n.batchEvidence; !slices.Equal(got, want) {
			t.Fatalf("%s: evidence %v, the original %v", tc.name, got, want)
		}
		if &tc.n.batchEvidence[0] == &orig.batchEvidence[0] {
			t.Fatalf("%s shares the original's evidence scratch", tc.name)
		}
		if !slices.Equal(orig.batchEvidence, want) {
			t.Fatalf("%s's batch rewrote the original's scratch to %v", tc.name, orig.batchEvidence)
		}
		for v := types.ValidatorIndex(0); v < 8; v++ {
			if got, want := tc.n.Registry.Columns().Status[v], orig.Registry.Columns().Status[v]; got != want {
				t.Fatalf("%s: validator %d has status %d, the original %d", tc.name, v, got, want)
			}
			if got, want := tc.n.Detector.Slashed(v), orig.Detector.Slashed(v); got != want {
				t.Fatalf("%s: validator %d marked %t, the original %t", tc.name, v, got, want)
			}
		}
	}
	if orig.Registry.Columns().Status[2] != validator.Slashed || orig.Registry.Columns().Status[5] != validator.Active {
		t.Fatal("the original did not slash exactly the equivocators")
	}
}

// votesOf indexes a per-validator vote column that may stop short of v.
func votesOf(column [][]attestation.Data, v int) []attestation.Data {
	if v < len(column) {
		return column[v]
	}
	return nil
}

func compareToReference(t *testing.T, at string, n *Node, ref *refVotes, validators int, stake func(types.ValidatorIndex) types.Gwei) {
	t.Helper()
	if got, want := len(n.Pool.Retained()), len(ref.pool); got != want {
		t.Fatalf("%s: pool holds %d epochs, reference %d", at, got, want)
	}
	for e, want := range ref.pool {
		got := n.Pool.VotesForEpoch(e)
		for v := 0; v < validators; v++ {
			g, w := votesOf(got, v), votesOf(want, v)
			if !slices.Equal(g, w) {
				t.Fatalf("%s: epoch %d validator %d votes\n  got  %v\n  want %v", at, e, v, g, w)
			}
		}
		if got, want := n.Pool.AppendLinkTally(nil, e, stake), ref.tally(e, stake); !slices.Equal(got, want) {
			t.Fatalf("%s: epoch %d link tally\n  got  %v\n  want %v", at, e, got, want)
		}
		for branch := uint64(1); branch <= 3; branch++ {
			var a attestation.Activity
			active := n.Pool.Activity(&a, e, types.RootFromUint64(branch))
			for v := 0; v < validators; v++ {
				voted := false
				for _, d := range votesOf(want, v) {
					voted = voted || d.Target.Root == types.RootFromUint64(branch)
				}
				if (v < len(active) && active[v]) != voted {
					t.Fatalf("%s: epoch %d validator %d active on branch %d = %t, reference %t", at, e, v, branch, !voted, voted)
				}
			}
		}
	}
	for v := 0; v < validators; v++ {
		want := v < len(ref.slashed) && ref.slashed[v]
		if got := n.Detector.Slashed(types.ValidatorIndex(v)); got != want {
			t.Fatalf("%s: validator %d marked %t, reference %t", at, v, got, want)
		}
	}
}

// compareEvidence checks the evidence a stream's batches produced, in
// order, against the reference's.
func compareEvidence(t *testing.T, at string, got []slashing.Evidence, ref *refVotes) {
	t.Helper()
	if !slices.Equal(got, ref.evidence) {
		t.Fatalf("%s: evidence\n  got  %v\n  want %v", at, got, ref.evidence)
	}
}

// writeCorpus stores each frame as a seed of a native fuzz target, in the
// corpus file format `go test` reads.
func writeCorpus(t *testing.T, dir string, frames [][]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, frame := range frames {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("stream-%d", i+1)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

package beacon

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/attestation"
	"repro/internal/codec"
	"repro/internal/slashing"
	"repro/internal/types"
)

var writeFuzzSeeds = flag.Bool("write-fuzz-seeds", false,
	"rewrite the checked-in seed corpora of FuzzDecodePool and FuzzDecodeDetector from this test's stream")

// refVotes is the storage the interned pool and detector replaced, kept as
// the reference: every vote stored whole, once per validator — the pool's
// per-epoch per-validator lists and the detector's per-validator history —
// with dedup, offense search and prune done by value.
type refVotes struct {
	pool     map[types.Epoch][][]attestation.Data
	history  [][]attestation.Data
	slashed  []bool
	evidence []slashing.Evidence
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
	col[v] = append(col[v], d)
	for len(m.history) <= int(v) {
		m.history = append(m.history, nil)
		m.slashed = append(m.slashed, false)
	}
	for _, prev := range m.history[v] {
		if prev == d {
			return true
		}
	}
	if !m.slashed[v] {
		for _, prev := range m.history[v] {
			if kind := slashing.Conflict(prev, d); kind != slashing.None {
				m.evidence = append(m.evidence, slashing.Evidence{Validator: v, Kind: kind, First: prev, Second: d})
				m.slashed[v] = true
				break
			}
		}
	}
	m.history[v] = append(m.history[v], d)
	return true
}

func (m *refVotes) prune(e types.Epoch) {
	for epoch := range m.pool {
		if epoch < e {
			delete(m.pool, epoch)
		}
	}
	for v, datas := range m.history {
		var kept []attestation.Data
		for _, d := range datas {
			if d.Target.Epoch >= e {
				kept = append(kept, d)
			}
		}
		m.history[v] = kept
	}
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
	w := codec.NewWriter(&buf)
	n.EncodeTo(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInternedVotesMatchReference drives one seeded vote stream —
// duplicates, double votes, surround votes, late votes for target epochs
// already pruned, three and more distinct votes per validator per epoch,
// with a real epoch boundary (and its prune) between epochs — into three
// consumers: a node fed batches, a node fed the same votes one at a time,
// and the reference model above. Everything the old storage let a caller
// observe must agree: which votes were new, each validator's votes in
// order, the link tally rows in order, the evidence sequence, the
// detector's marks and histories — in arrival order, though many of them
// outgrow the detector's one-line-per-validator arena, before and after a
// prune, and continue in its spill; and the two nodes must serialize to the
// same bytes, which decode and re-encode to themselves. Those bytes are the
// ones the build before the arena wrote: testdata/node-pr13-stream1.frame
// is its frame for the first stream's final node.
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
	// The longest detector history seen going into a boundary's prune and
	// coming out of one. detectorLine is more words than the arena gives
	// one validator, so a longer history has certainly spilled.
	const detectorLine = 16
	longestBefore, longestAfter := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batched := NewNode(0, validators, types.DefaultSpec(), genesis())
		single := NewNode(0, validators, types.DefaultSpec(), genesis())
		batched.EnforceSlashing, single.EnforceSlashing = true, true
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
				batched.ReceiveBatch(d, voters)
				if got := batched.batchNew; !slices.Equal(got, wantNew) {
					t.Fatalf("seed %d epoch %d step %d: batch took %v as new, reference %v", seed, epoch, step, got, wantNew)
				}
				for _, v := range voters {
					single.ReceiveAttestation(attestation.Attestation{Validator: v, Data: d})
				}
			}
			compareToReference(t, fmt.Sprintf("seed %d epoch %d batched", seed, epoch), batched, ref, validators, stake)
			compareToReference(t, fmt.Sprintf("seed %d epoch %d single", seed, epoch), single, ref, validators, stake)
			for _, h := range ref.history {
				longestBefore = max(longestBefore, len(h))
			}

			for _, n := range []*Node{batched, single} {
				if _, err := n.ProcessEpochBoundary(epoch + 1); err != nil {
					t.Fatal(err)
				}
			}
			if epoch+1 > 8 {
				ref.prune(epoch + 1 - 8)
			}
			compareToReference(t, fmt.Sprintf("seed %d after boundary %d batched", seed, epoch+1), batched, ref, validators, stake)
			if epoch+1 > 8 {
				for _, h := range ref.history {
					longestAfter = max(longestAfter, len(h))
				}
			}

			frame := encodeNode(t, batched)
			if !bytes.Equal(frame, encodeNode(t, single)) {
				t.Fatalf("seed %d epoch %d: batch and one-at-a-time ingestion serialize differently", seed, epoch)
			}
			decoded := DecodeNode(codec.NewReader(bytes.NewReader(frame)))
			if decoded == nil {
				t.Fatalf("seed %d epoch %d: frame does not decode", seed, epoch)
			}
			if !bytes.Equal(encodeNode(t, decoded), frame) {
				t.Fatalf("seed %d epoch %d: decoded frame re-encodes differently", seed, epoch)
			}
			compareToReference(t, fmt.Sprintf("seed %d epoch %d decoded", seed, epoch), decoded, ref, validators, stake)
			// A clone and a decoded node must go on exactly like the
			// original; swap them in for the rest of the stream.
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
			if !bytes.Equal(encodeNode(t, batched), parent) {
				t.Fatal("the first stream's final node no longer serializes to the bytes PR 13 wrote for it")
			}
			decoded := DecodeNode(codec.NewReader(bytes.NewReader(parent)))
			if decoded == nil || !bytes.Equal(encodeNode(t, decoded), parent) {
				t.Fatal("the frame PR 13 wrote does not decode and re-encode to itself")
			}
		}
		if seed <= 2 {
			var pool, detector bytes.Buffer
			batched.Pool.EncodeTo(codec.NewWriter(&pool))
			batched.Detector.EncodeTo(codec.NewWriter(&detector))
			poolSeeds = append(poolSeeds, pool.Bytes())
			detectorSeeds = append(detectorSeeds, detector.Bytes())
		}
	}
	if reported[slashing.DoubleVote] == 0 || reported[slashing.SurroundVote] == 0 || mostVotes < 3 ||
		longestBefore <= detectorLine || longestAfter <= detectorLine {
		t.Fatalf("the streams no longer cover what this test is for: evidence %v, at most %d votes per validator per epoch, detector histories up to %d before a prune and %d after",
			reported, mostVotes, longestBefore, longestAfter)
	}
	if *writeFuzzSeeds {
		writeCorpus(t, "../attestation/testdata/fuzz/FuzzDecodePool", poolSeeds)
		writeCorpus(t, "../slashing/testdata/fuzz/FuzzDecodeDetector", detectorSeeds)
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
	if got, want := n.Pool.Epochs(), len(ref.pool); got != want {
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
			var active attestation.Activity
			n.Pool.Activity(&active, e, types.RootFromUint64(branch))
			for v := 0; v < validators; v++ {
				voted := false
				for _, d := range votesOf(want, v) {
					voted = voted || d.Target.Root == types.RootFromUint64(branch)
				}
				if active.Active(types.ValidatorIndex(v)) != voted {
					t.Fatalf("%s: epoch %d validator %d active on branch %d = %t, reference %t", at, e, v, branch, !voted, voted)
				}
			}
		}
	}
	if got := n.SlashingEvidence(); !slices.Equal(got, ref.evidence) {
		t.Fatalf("%s: evidence\n  got  %v\n  want %v", at, got, ref.evidence)
	}
	histories := detectorHistories(t, n.Detector)
	for v := 0; v < validators; v++ {
		var wantLen int
		var wantSlashed bool
		if v < len(ref.history) {
			wantLen, wantSlashed = len(ref.history[v]), ref.slashed[v]
		}
		vi := types.ValidatorIndex(v)
		if n.Detector.HistoryLen(vi) != wantLen || n.Detector.Slashed(vi) != wantSlashed {
			t.Fatalf("%s: validator %d history %d slashed %t, reference %d %t",
				at, v, n.Detector.HistoryLen(vi), n.Detector.Slashed(vi), wantLen, wantSlashed)
		}
		if got, want := votesOf(histories, v), votesOf(ref.history, v); !slices.Equal(got, want) {
			t.Fatalf("%s: validator %d detector history\n  got  %v\n  want %v", at, v, got, want)
		}
	}
}

// detectorHistories reads every validator's recorded votes, in order, out
// of the detector's frame: the value table, a column of history lengths and
// a flat column of table ids.
func detectorHistories(t *testing.T, d *slashing.Detector) [][]attestation.Data {
	t.Helper()
	var frame bytes.Buffer
	d.EncodeTo(codec.NewWriter(&frame))
	r := codec.NewReader(bytes.NewReader(frame.Bytes()))
	table := attestation.DecodeTable(r)
	counts, ids := r.U32s(), r.U32s()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	out := make([][]attestation.Data, len(counts))
	for v, n := range counts {
		for _, id := range ids[:n] {
			out[v] = append(out[v], table[id])
		}
		ids = ids[n:]
	}
	return out
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

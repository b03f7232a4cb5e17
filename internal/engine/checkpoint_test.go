package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/blocktree"
	"repro/internal/sim"
	"repro/internal/types"
)

// memStore is an in-memory CheckpointStore for the runner tests (the
// durable tier's own torn-write/corruption table lives in
// internal/store). afterSave, when set, observes each successful save —
// the cancellation tests use it to cut the context at a precise
// checkpoint boundary.
type memStore struct {
	mu        sync.Mutex
	data      map[string][]byte
	saves     int
	loads     int
	deletes   int
	afterSave func(saves int)
}

func newMemStore() *memStore { return &memStore{data: make(map[string][]byte)} }

func (m *memStore) SaveCheckpoint(cellKey string, payload []byte) error {
	m.mu.Lock()
	m.data[cellKey] = append([]byte(nil), payload...)
	m.saves++
	saves := m.saves
	hook := m.afterSave
	m.mu.Unlock()
	if hook != nil {
		hook(saves)
	}
	return nil
}

// ReadCheckpoint lends the held bytes themselves and drops a payload use
// refuses, as the durable store does.
func (m *memStore) ReadCheckpoint(cellKey string, use func(payload []byte) bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loads++
	payload, ok := m.data[cellKey]
	if ok && !use(payload) {
		delete(m.data, cellKey)
		return false
	}
	return ok
}

func (m *memStore) DeleteCheckpoint(cellKey string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.data[cellKey]; ok {
		delete(m.data, cellKey)
		m.deletes++
	}
}

func (m *memStore) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.data)
}

// checkpointTestCells are fast parameterizations of the four
// checkpointable scenarios, each deep enough to cross several small
// checkpoint intervals.
var checkpointTestCells = []Cell{
	{Scenario: ScenarioSimDrops, Params: Params{P0: 0.5, N: 16, Horizon: 8, Seed: 1, Rate: 0.1}},
	{Scenario: ScenarioSimGST, Params: Params{P0: 0.5, N: 24, Horizon: 12, Seed: 3, GST: 6}},
	{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}},
	{Scenario: ScenarioSimSemiActive, Params: Params{P0: 0.5, Beta0: 0.25, N: 16, Horizon: 30, Seed: 1}},
}

// TestCheckpointableScenarioRegistration: every row of simRows, sim/bounce
// included, is in the default registry and implements
// CheckpointableScenario, so it warm-starts and checkpoints.
func TestCheckpointableScenarioRegistration(t *testing.T) {
	for _, row := range simRows {
		s, ok := Default.Lookup(row.name)
		if !ok {
			t.Fatalf("%s not registered", row.name)
		}
		if _, ok := s.(CheckpointableScenario); !ok {
			t.Errorf("%s does not implement CheckpointableScenario", row.name)
		}
	}
}

// TestPrefixCodecRoundTrip is the prefix-level codec contract for all
// four scenarios: RunTo to a mid-cell epoch, encode, decode, resume —
// the result must be bit-identical (Meta aside) to the uninterrupted
// cold run.
func TestPrefixCodecRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, cell := range checkpointTestCells {
		t.Run(cell.Scenario, func(t *testing.T) {
			sc, ok := Default.Lookup(cell.Scenario)
			if !ok {
				t.Fatalf("%s not registered", cell.Scenario)
			}
			cs := sc.(CheckpointableScenario)
			p := cell.Params.WithDefaults(sc.Defaults())

			cold, err := sc.Run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}

			_, branch, ok := cs.Fork(p)
			if !ok {
				t.Fatalf("Fork(%v) not ok", p)
			}
			mid := branch / 2
			if mid == 0 {
				mid = 1
			}
			pre, err := cs.RunTo(ctx, p, nil, mid)
			if err != nil {
				t.Fatal(err)
			}
			var blob bytes.Buffer
			if err := cs.EncodePrefix(&blob, pre); err != nil {
				t.Fatalf("EncodePrefix: %v", err)
			}
			dec, err := cs.DecodePrefix(bytes.NewReader(blob.Bytes()))
			if err != nil {
				t.Fatalf("DecodePrefix: %v", err)
			}
			if dec.Epoch != pre.Epoch || dec.Done != pre.Done {
				t.Fatalf("decoded prefix position = (epoch %d, done %t), want (%d, %t)",
					dec.Epoch, dec.Done, pre.Epoch, pre.Done)
			}
			warm, err := cs.ResumeFrom(ctx, dec, p)
			if err != nil {
				t.Fatalf("ResumeFrom(decoded): %v", err)
			}
			if got, want := warm.WithoutMeta(), cold.WithoutMeta(); !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded prefix's resume diverged from the cold run:\n  resumed: %+v\n  cold:    %+v", got, want)
			}
		})
	}
}

// TestPrefixCodecRejectsMismatch: a blob written by a different scenario
// or a skewed version decodes as an error (the runner's cold-start
// verdict), never as a wrong prefix.
func TestPrefixCodecRejectsMismatch(t *testing.T) {
	ctx := context.Background()
	leak, _ := Default.Lookup(ScenarioSimLeak)
	cs := leak.(CheckpointableScenario)
	p := Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}.WithDefaults(leak.Defaults())
	pre, err := cs.RunTo(ctx, p, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := cs.EncodePrefix(&blob, pre); err != nil {
		t.Fatal(err)
	}

	drops, _ := Default.Lookup(ScenarioSimDrops)
	if _, err := drops.(CheckpointableScenario).DecodePrefix(bytes.NewReader(blob.Bytes())); err == nil {
		t.Fatal("sim/drops decoded a sim/leak checkpoint")
	}
	skewed := append([]byte(nil), blob.Bytes()...)
	skewed[0]++ // prefixCodecVersion is the first little-endian u32
	if _, err := cs.DecodePrefix(bytes.NewReader(skewed)); err == nil {
		t.Fatal("version-skewed prefix decoded")
	}
	if _, err := cs.DecodePrefix(bytes.NewReader(blob.Bytes()[:blob.Len()/2])); err == nil {
		t.Fatal("truncated prefix decoded")
	}
}

// prefixV1PR18 is the version 1 prefix blob PR 18's EncodePrefix wrote for
// the sim/leak cell of these tests (n 16, seed 1) eight epochs in: behind
// the scenario name it carries the two booleans that named which reference
// simulator wrote it. Version 2 dropped them.
const prefixV1PR18 = "testdata/prefix-v1-pr18.blob"

// TestPrefixBlobWrittenByPR18: the checked-in version 1 blob is a version
// miss to this build, never a prefix.
func TestPrefixBlobWrittenByPR18(t *testing.T) {
	old, err := os.ReadFile(prefixV1PR18)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(old); v != 1 || prefixCodecVersion == 1 {
		t.Fatalf("checked-in blob is version %d, this build writes %d; the blob must be 1 and the build not", v, prefixCodecVersion)
	}
	leak, _ := Default.Lookup(ScenarioSimLeak)
	pre, err := leak.(CheckpointableScenario).DecodePrefix(bytes.NewReader(old))
	if pre != nil || !errors.Is(err, errPrefixCodec) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("DecodePrefix of a version 1 blob = %v, %v; want nil and a version error wrapping errPrefixCodec", pre, err)
	}
}

var writeFrame = flag.Bool("write-frame", false,
	"rewrite testdata/prefix-v3-frame-v8.blob from TestPrefixBlobFixture's run")

// prefixFixture is a version 3 prefix blob around a version 8 snapshot
// frame: the sim/semiactive cell of prefixFixtureParams 60 epochs in — a
// sampled stake curve and the stake floor, then a snapshot of the two
// honest views that ends in the adversary's gait state. prefixV7Frame is
// the same cell's version 3 blob around a version 7 frame, which still held
// a third view, the Byzantine validators'. The version 2 blobs of the same
// cell carried the gait state in the trace instead: prefixV4Frame around a
// version 4 frame, written by the encoder and decoder pairs the codec walks
// replaced (the first blob to cover the trace and adversary codecs), and
// prefixV5Frame and prefixV6Frame around version 5 and 6 frames.
const (
	prefixFixture = "testdata/prefix-v3-frame-v8.blob"
	prefixV4Frame = "testdata/prefix-v2-pr39.blob"
	prefixV5Frame = "testdata/prefix-v2-frame-v5.blob"
	prefixV6Frame = "testdata/prefix-v2-frame-v6.blob"
	prefixV7Frame = "testdata/prefix-v3-frame-v7.blob"
)

// prefixFixtureParams is the cell prefixFixture was written for.
var prefixFixtureParams = Params{P0: 0.5, Beta0: 0.33, N: 64, Horizon: 120, Seed: 1, Sample: 10}

// TestPrefixBlobFixture: this build writes the checked-in blob's exact
// bytes for its cell, the blob decodes, re-encodes to the same bytes, and
// finishes its cell to the Result a cold run computes. The version 2 blobs
// are version misses, and so is the version 3 blob around a version 7
// frame, at its frame. (-write-frame rewrites the blob.)
func TestPrefixBlobFixture(t *testing.T) {
	ctx := context.Background()
	sc, _ := Default.Lookup(ScenarioSimSemiActive)
	cs := sc.(CheckpointableScenario)
	for _, path := range []string{prefixV4Frame, prefixV5Frame, prefixV6Frame} {
		old, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if pre, err := cs.DecodePrefix(bytes.NewReader(old)); pre != nil || !errors.Is(err, errPrefixCodec) || !strings.Contains(err.Error(), "version 2") {
			t.Fatalf("DecodePrefix of %s = %v, %v; want nil and a version 2 error wrapping errPrefixCodec", path, pre, err)
		}
	}
	old, err := os.ReadFile(prefixV7Frame)
	if err != nil {
		t.Fatal(err)
	}
	if pre, err := cs.DecodePrefix(bytes.NewReader(old)); pre != nil || !errors.Is(err, sim.ErrSnapshotCodec) || !strings.Contains(err.Error(), "version 7") {
		t.Fatalf("DecodePrefix of %s = %v, %v; want nil and a version 7 error wrapping sim.ErrSnapshotCodec", prefixV7Frame, pre, err)
	}

	p := prefixFixtureParams.WithDefaults(sc.Defaults())
	live, err := cs.RunTo(ctx, p, nil, 60)
	if err != nil {
		t.Fatal(err)
	}
	var written bytes.Buffer
	if err := cs.EncodePrefix(&written, live); err != nil {
		t.Fatal(err)
	}
	if *writeFrame {
		if err := os.WriteFile(prefixFixture, written.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(prefixFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written.Bytes(), blob) {
		t.Fatalf("this build's blob for the same cell differs from the checked-in one (%d vs %d bytes)", written.Len(), len(blob))
	}
	pre, err := cs.DecodePrefix(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("DecodePrefix: %v", err)
	}
	if pre.Epoch != 60 || pre.Done {
		t.Fatalf("decoded prefix at epoch %d (done %t), want 60 and not done", pre.Epoch, pre.Done)
	}
	var again bytes.Buffer
	if err := cs.EncodePrefix(&again, pre); err != nil {
		t.Fatalf("EncodePrefix: %v", err)
	}
	if !bytes.Equal(again.Bytes(), blob) {
		t.Fatalf("the decoded blob re-encodes differently (%d bytes, the fixture %d)", again.Len(), len(blob))
	}
	cold, err := sc.Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cs.ResumeFrom(ctx, pre, p)
	if err != nil {
		t.Fatalf("ResumeFrom: %v", err)
	}
	if got, want := warm.WithoutMeta(), cold.WithoutMeta(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the fixture's resume diverged from the cold run:\n  resumed: %+v\n  cold:    %+v", got, want)
	}
}

// TestCheckpointLoadsIntoUsedSpares is the differential check of the
// durable tier's resume: the checked-in sim/semiactive blob, and a second
// sim/semiactive prefix one of whose views holds a slashing mark, each
// loaded (loadPrefix) into the spare simulation a cell of another shape
// left behind — more validators, fewer, another scenario — with a block
// waiting for its parent in every view, stands on that spare, re-encodes to
// the blob's bytes, and finishes its cell to the Result of the prefix it was
// written from: the cold run's for the fixture, and the live prefix's own
// continuation for the second.
func TestCheckpointLoadsIntoUsedSpares(t *testing.T) {
	ctx := context.Background()
	sc, _ := Default.Lookup(ScenarioSimSemiActive)
	cs := sc.(CheckpointableScenario)
	fixture, err := os.ReadFile(prefixFixture)
	if err != nil {
		t.Fatal(err)
	}
	slashed := Params{P0: 0.5, Beta0: 0.33, N: 96, Horizon: 90, Seed: 2}.WithDefaults(sc.Defaults())
	pre, err := cs.advanceTo(ctx, slashed, nil, 40)
	if err != nil {
		t.Fatal(err)
	}
	// The partition never heals, so no honest view sees the Byzantine
	// validators' votes on both branches: show one view a double vote.
	live := pre.live()
	view := live.Cohorts()[0].Node
	vote, err := view.AttestationData(live.Slot())
	if err != nil {
		t.Fatal(err)
	}
	for _, head := range []uint64{901, 902} {
		vote.Head = types.RootFromUint64(head)
		view.ReceiveBatch(vote, []types.ValidatorIndex{1})
	}
	marks := 0
	for _, c := range live.Cohorts() {
		for v := range slashed.N {
			if c.Node.Detector.Slashed(types.ValidatorIndex(v)) {
				marks++
			}
		}
	}
	if marks == 0 {
		t.Fatal("the sim/semiactive prefix holds no slashing marks")
	}
	var slashedBlob bytes.Buffer
	if err := cs.EncodePrefix(&slashedBlob, pre); err != nil {
		t.Fatal(err)
	}
	slashedWant, err := cs.ResumeFrom(ctx, pre, slashed)
	if err != nil {
		t.Fatal(err)
	}
	fixtureParams := prefixFixtureParams.WithDefaults(sc.Defaults())
	fixtureWant, err := sc.Run(ctx, fixtureParams)
	if err != nil {
		t.Fatal(err)
	}

	used := []Cell{
		{Scenario: ScenarioSimSemiActive, Params: Params{P0: 0.5, Beta0: 0.2, N: 160, Horizon: 30, Seed: 3}},
		{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 12, Seed: 1}},
		{Scenario: ScenarioSimDrops, Params: Params{Rate: 0.3, N: 80, Horizon: 9, Seed: 4}},
	}
	for _, b := range []struct {
		name string
		p    Params
		blob []byte
		want Result
	}{
		{"fixture", fixtureParams, fixture, fixtureWant},
		{"slashed", slashed, slashedBlob.Bytes(), slashedWant},
	} {
		for _, u := range used {
			drainSpares()
			if _, err := RunCell(ctx, u, Options{}); err != nil {
				t.Fatal(err)
			}
			s := spare()
			for _, c := range s.Cohorts() {
				c.Node.ReceiveBlock(blocktree.Block{Slot: s.Slot() + 1, Root: types.RootFromUint64(1 << 40), Parent: types.RootFromUint64(1 << 41)})
			}
			recycle(s)
			pre, err := cs.loadPrefix(bytes.NewReader(b.blob), b.p)
			if err != nil {
				t.Fatalf("%s into %s's spare: %v", b.name, u.Scenario, err)
			}
			if pre.live() != s {
				t.Fatalf("%s: the prefix does not stand on %s's spare", b.name, u.Scenario)
			}
			var again bytes.Buffer
			if err := cs.EncodePrefix(&again, pre); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), b.blob) {
				t.Errorf("%s into %s's spare re-encodes differently (%d vs %d bytes)", b.name, u.Scenario, again.Len(), len(b.blob))
				continue
			}
			res, err := cs.ResumeFrom(ctx, pre, b.p)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.WithoutMeta(), b.want.WithoutMeta(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s into %s's spare diverged from the prefix's own run:\n  resumed: %+v\n  want:    %+v", b.name, u.Scenario, got, want)
			}
		}
	}
}

// TestEncodePrefixReturnsWriteError: a failed write comes back through
// EncodePrefix whether it hits the prefix's own fields or the snapshot
// after them, so a checkpoint whose bytes did not land is never taken as
// saved. (A snapshot with no durable form fails the same way: internal/sim's
// TestSnapshotCodecRoundTrip holds WriteTo over the map-based reference
// fork choice to ErrSnapshotCodec.)
func TestEncodePrefixReturnsWriteError(t *testing.T) {
	drops, _ := Default.Lookup(ScenarioSimDrops)
	cs := drops.(CheckpointableScenario)
	s, err := sim.New(simDropsConfig(Params{N: 8, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	pre := &Prefix{Snap: s.Snapshot(), trace: noTrace{}}
	var blob bytes.Buffer
	if err := cs.EncodePrefix(&blob, pre); err != nil {
		t.Fatal(err)
	}
	errFull := errors.New("device full")
	for _, cut := range []int{0, blob.Len() - 1} {
		if err := cs.EncodePrefix(&cutWriter{left: cut, err: errFull}, pre); !errors.Is(err, errFull) {
			t.Errorf("EncodePrefix into a writer that fails after %d of %d bytes = %v, want %v", cut, blob.Len(), err, errFull)
		}
	}
}

// cutWriter accepts left bytes, then fails every write with err.
type cutWriter struct {
	left int
	err  error
}

func (w *cutWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, w.err
	}
	w.left -= len(p)
	return len(p), nil
}

// TestSweepCheckpointTransparent: a checkpointed sweep with no prior
// state produces results bit-identical to the plain sweep and leaves the
// store empty (every completed cell deletes its checkpoint). A cell longer
// than one interval writes its interval checkpoints on the way; the chunk a
// cell finishes on is never written — so a cell that ends at its branch
// inside its first interval writes none — while the branch of a sim/gst
// cell that still has its heal tail to run is.
func TestSweepCheckpointTransparent(t *testing.T) {
	ctx := context.Background()
	cold := SweepContext(ctx, checkpointTestCells, Options{Workers: 2})

	ms := newMemStore()
	warm := SweepContext(ctx, checkpointTestCells, Options{
		Workers:    2,
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	})
	if got, want := StripMeta(warm), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointed sweep diverged from the plain sweep:\n  checkpointed: %+v\n  plain:        %+v", got, want)
	}
	// In checkpointTestCells order: sim/drops ends at epoch 8, inside its
	// first interval; sim/gst saves its branch (epoch 6 of 12); sim/leak
	// saves epochs 8, 16, 24, 32 of 40; sim/semiactive 8, 16, 24 of 30.
	wantWritten := []int{0, 1, 4, 3}
	for i, r := range warm {
		ck := r.Meta.Checkpoint
		if ck == nil {
			t.Fatalf("cell %d carries no checkpoint meta: %+v", i, r.Meta)
		}
		if ck.Resumed {
			t.Errorf("cell %d claims a resume on an empty store", i)
		}
		if ck.Written != wantWritten[i] {
			t.Errorf("cell %d (%s) wrote %d checkpoints, want %d", i, r.Scenario, ck.Written, wantWritten[i])
		}
	}
	if n := ms.len(); n != 0 {
		t.Fatalf("store holds %d checkpoints after all cells completed, want 0", n)
	}
	if ms.saves != 8 || ms.deletes != 3 {
		t.Fatalf("store saw saves=%d deletes=%d, want 8 and 3 (one per cell that wrote)", ms.saves, ms.deletes)
	}
}

// TestSweepCheckpointResume is the crash-resume contract at the sweep
// level: a cell whose store holds a mid-cell checkpoint (as a killed
// worker would leave behind) resumes from it — reporting the epochs it
// did not re-simulate — and its result is bit-identical to the cold run.
func TestSweepCheckpointResume(t *testing.T) {
	ctx := context.Background()
	cell := Cell{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}}
	cold := SweepContext(ctx, []Cell{cell}, Options{Workers: 1})

	// Plant the checkpoint a crashed worker would have left at epoch 16.
	sc, _ := Default.Lookup(cell.Scenario)
	cs := sc.(CheckpointableScenario)
	p := cell.Params.WithDefaults(sc.Defaults())
	pre, err := cs.RunTo(ctx, p, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	ms := newMemStore()
	key, ok := CanonicalCellKey(Default, cell)
	if !ok {
		t.Fatal("no canonical key")
	}
	if err := saveCheckpoint(cs, ms, key, pre); err != nil {
		t.Fatal(err)
	}

	warm := SweepContext(ctx, []Cell{cell}, Options{
		Workers:    1,
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	})
	if got, want := StripMeta(warm), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run diverged from the cold run:\n  resumed: %+v\n  cold:    %+v", got, want)
	}
	ck := warm[0].Meta.Checkpoint
	if ck == nil || !ck.Resumed || ck.ResumeEpoch != 16 || ck.EpochsSaved != 16 {
		t.Fatalf("checkpoint meta %+v, want resumed from epoch 16", ck)
	}
	if n := ms.len(); n != 0 {
		t.Fatalf("store holds %d checkpoints after completion, want 0", n)
	}
}

// TestSimBounceSweepResumes: sim/bounce runs through the one runner. A
// grid that straddles its stop rule (horizon 8, no stop; 12 and 16, a stop
// six epochs before) over two seeds returns its cold payloads warm-started,
// and again checkpointed, with every cell resuming mid-attack from a
// checkpoint planted at epoch 5: the Bouncer's state decoded from the
// frame.
func TestSimBounceSweepResumes(t *testing.T) {
	ctx := context.Background()
	var cells []Cell
	for _, seed := range []int64{19, 7} {
		for _, horizon := range []int{8, 12, 16} {
			cells = append(cells, Cell{Scenario: ScenarioSimBounce, Params: Params{P0: 0.7, Beta0: 0.25, N: 40, Horizon: horizon, Seed: seed, GST: 3}})
		}
	}
	cold := SweepContext(ctx, cells, Options{Workers: 2})
	for i, r := range cold {
		if r.Err != "" {
			t.Fatalf("cell %d: %s", i, r.Err)
		}
	}
	warm := SweepContext(ctx, cells, Options{Workers: 2, WarmStart: &WarmStartOptions{}})
	if got, want := StripMeta(warm), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm sweep diverged from the cold sweep:\n  warm: %+v\n  cold: %+v", got, want)
	}

	sc, _ := Default.Lookup(ScenarioSimBounce)
	cs := sc.(CheckpointableScenario)
	ms := newMemStore()
	for _, cell := range cells {
		pre, err := cs.RunTo(ctx, cell.Params.WithDefaults(sc.Defaults()), nil, 5)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := CanonicalCellKey(Default, cell)
		if err := saveCheckpoint(cs, ms, key, pre); err != nil {
			t.Fatal(err)
		}
	}
	resumed := SweepContext(ctx, cells, Options{Workers: 2, Checkpoint: &CheckpointOptions{Every: 2, Store: ms}})
	if got, want := StripMeta(resumed), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointed sweep diverged from the cold sweep:\n  resumed: %+v\n  cold:    %+v", got, want)
	}
	for i, r := range resumed {
		if ck := r.Meta.Checkpoint; ck == nil || !ck.Resumed || ck.ResumeEpoch != 5 {
			t.Errorf("cell %d (%+v): checkpoint meta %+v, want a resume from epoch 5", i, cells[i].Params, ck)
		}
	}
}

// TestSweepCheckpointCorruptColdStart: an undecodable checkpoint payload
// (schema drift the store's framing cannot catch — garbage, a checkpoint
// whose snapshot frame carries the version 1 header of builds before the
// interned-vote format, or one whose snapshot is the version 2 frame PR 13
// wrote, from before the detector's votes left the frame, or the version 3
// frame of the build before the second registry did, or the version 4
// frame of the build before each node's validator id and evidence history
// did, or the version 5 frame of the build before each node's second spec
// did, or the version 6 frame of the build before the adversary's state
// joined the frame, or the checked-in version 1 prefix blob, which still
// named a reference simulator) is silently discarded — the cell starts
// cold, produces the correct result, and repairs the store.
func TestSweepCheckpointCorruptColdStart(t *testing.T) {
	ctx := context.Background()
	cell := Cell{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}}
	cold := SweepContext(ctx, []Cell{cell}, Options{Workers: 1})
	key, _ := CanonicalCellKey(Default, cell)

	// saved plants a real checkpoint of the cell at epoch 16 and returns
	// where its snapshot frame starts.
	saved := func(t *testing.T, ms *memStore) int {
		sc, _ := Default.Lookup(cell.Scenario)
		cs := sc.(CheckpointableScenario)
		pre, err := cs.RunTo(ctx, cell.Params.WithDefaults(sc.Defaults()), nil, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := saveCheckpoint(cs, ms, key, pre); err != nil {
			t.Fatal(err)
		}
		frame := bytes.Index(ms.data[key], []byte("GLSN"))
		if frame < 0 {
			t.Fatal("no snapshot frame in the saved checkpoint")
		}
		return frame
	}
	// oldFrame plants the checkpoint with its snapshot frame replaced by a
	// checked-in frame of an earlier format version.
	oldFrame := func(path string) func(*testing.T, *memStore) {
		return func(t *testing.T, ms *memStore) {
			old, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			frame := saved(t, ms)
			ms.data[key] = append(ms.data[key][:frame], old...)
		}
	}
	payloads := []struct {
		name  string
		plant func(t *testing.T, ms *memStore)
	}{
		{"garbage", func(t *testing.T, ms *memStore) { ms.data[key] = []byte("not a checkpoint at all") }},
		{"v1-header", func(t *testing.T, ms *memStore) {
			frame := saved(t, ms)
			binary.LittleEndian.PutUint32(ms.data[key][frame+4:], 1)
		}},
		{"pr13-v2-frame", oldFrame("../sim/testdata/snapshot-v2-pr13.frame")},
		{"pr16-v3-frame", oldFrame("../sim/testdata/snapshot-v3-pr16.frame")},
		{"v4-frame", oldFrame("../sim/testdata/snapshot-v4-pr18.frame")},
		{"v5-frame", oldFrame("../sim/testdata/snapshot-v5.frame")},
		{"v6-frame", oldFrame("../sim/testdata/snapshot-v6.frame")},
		{"pr18-v1-prefix", func(t *testing.T, ms *memStore) {
			old, err := os.ReadFile(prefixV1PR18)
			if err != nil {
				t.Fatal(err)
			}
			ms.data[key] = old
		}},
	}
	for _, tc := range payloads {
		t.Run(tc.name, func(t *testing.T) {
			ms := newMemStore()
			tc.plant(t, ms)
			warm := SweepContext(ctx, []Cell{cell}, Options{
				Workers:    1,
				Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
			})
			if got, want := StripMeta(warm), StripMeta(cold); !reflect.DeepEqual(got, want) {
				t.Fatalf("corrupt-checkpoint run diverged from the cold run")
			}
			ck := warm[0].Meta.Checkpoint
			if ck == nil || ck.Resumed {
				t.Fatalf("checkpoint meta %+v, want a cold start", ck)
			}
			if n := ms.len(); n != 0 {
				t.Fatalf("store holds %d checkpoints after completion, want 0", n)
			}
		})
	}
}

// TestSweepCheckpointCancelResume: a cell cancelled mid-run (a draining
// worker) leaves its newest checkpoint in the store; a rerun against the
// same store resumes from it and matches the cold run bit-identically —
// kill-and-resume recomputes at most one checkpoint interval.
func TestSweepCheckpointCancelResume(t *testing.T) {
	cell := Cell{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}}
	cold := SweepContext(context.Background(), []Cell{cell}, Options{Workers: 1})

	// Cut the context right after the second periodic save (epoch 16) —
	// the deterministic analogue of a drain signal landing mid-cell.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ms := newMemStore()
	ms.afterSave = func(saves int) {
		if saves == 2 {
			cancel()
		}
	}
	interrupted := SweepContext(ctx, []Cell{cell}, Options{
		Workers:    1,
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	})
	if interrupted[0].Err == "" {
		t.Fatal("cancelled cell reported no error")
	}
	if n := ms.len(); n != 1 {
		t.Fatalf("store holds %d checkpoints after the interrupted run, want 1", n)
	}

	ms.afterSave = nil
	resumed := SweepContext(context.Background(), []Cell{cell}, Options{
		Workers:    1,
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	})
	if got, want := StripMeta(resumed), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("killed-and-resumed run diverged from the uninterrupted run:\n  resumed: %+v\n  cold:    %+v", got, want)
	}
	ck := resumed[0].Meta.Checkpoint
	if ck == nil || !ck.Resumed || ck.ResumeEpoch != 16 || ck.EpochsSaved != 16 {
		t.Fatalf("checkpoint meta %+v, want resumed from epoch 16", ck)
	}
	if n := ms.len(); n != 0 {
		t.Fatalf("store holds %d checkpoints after completion, want 0", n)
	}
}

// errAfter is a context whose Err turns to context.Canceled after its first
// `calls` calls. The cell executor asks once before a cell starts and the
// epoch loop once per epoch, before stepping it, so the cancellation lands
// on a chosen epoch boundary — which no store hook can reach between two
// saves.
type errAfter struct {
	context.Context
	calls int
}

func (c *errAfter) Err() error {
	if c.calls == 0 {
		return context.Canceled
	}
	c.calls--
	return nil
}

// TestCheckpointCancelMidInterval: a cancellation that lands between two
// interval boundaries loses nothing. The cancelled hop hands back the prefix
// it reached, the runner saves it on the way out, and the re-run resumes at
// that very epoch — 11 here, a multiple of neither the interval nor anything
// else the runner steps by — to the cold run's payload. The sim/partition
// cell's re-run concludes at its epoch-26 violation, short of its horizon.
func TestCheckpointCancelMidInterval(t *testing.T) {
	const every, landed = 8, 11
	for _, cell := range []Cell{
		{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}},
		{Scenario: ScenarioSimPartition, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 3}},
	} {
		t.Run(cell.Scenario, func(t *testing.T) {
			cold, err := RunCell(context.Background(), cell, Options{})
			if err != nil {
				t.Fatal(err)
			}

			ms := newMemStore()
			ck := &CheckpointOptions{Every: every, Store: ms}
			// One call before the cell starts, then one per epoch stepped.
			ctx := &errAfter{Context: context.Background(), calls: 1 + landed}
			interrupted, err := RunCell(ctx, cell, Options{Checkpoint: ck})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want context.Canceled", err)
			}
			if w := interrupted.Meta.Checkpoint.Written; w != 2 || ms.len() != 1 {
				t.Fatalf("interrupted run wrote %d checkpoints and left %d, want 2 written (epochs %d and %d) and the newest left", w, ms.len(), every, landed)
			}

			resumed, err := RunCell(context.Background(), cell, Options{Checkpoint: ck})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := resumed.WithoutMeta(), cold.WithoutMeta(); !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed run diverged from the cold run:\n  resumed: %+v\n  cold:    %+v", got, want)
			}
			if m := resumed.Meta.Checkpoint; !m.Resumed || m.ResumeEpoch != landed || m.EpochsSaved != landed {
				t.Fatalf("checkpoint meta %+v, want resumed from epoch %d", m, landed)
			}
			if n := ms.len(); n != 0 {
				t.Fatalf("store holds %d checkpoints after completion, want 0", n)
			}
		})
	}
}

// TestCheckpointSkipsNonCheckpointable: cells of scenarios without the
// prefix codec (analytic scenarios, the bounce-mc Monte-Carlo) run the
// plain path untouched — same results, no store traffic.
func TestCheckpointSkipsNonCheckpointable(t *testing.T) {
	cells := []Cell{
		{Scenario: ScenarioPartition, Params: Params{P0: 0.5}},
		{Scenario: ScenarioBounceMC, Params: Params{N: 40, Horizon: 8, P0: 0.7, Beta0: 0.25, Seed: 19}},
	}
	ctx := context.Background()
	cold := SweepContext(ctx, cells, Options{Workers: 1})
	ms := newMemStore()
	warm := SweepContext(ctx, cells, Options{
		Workers:    1,
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	})
	if got, want := StripMeta(warm), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint option perturbed non-checkpointable cells")
	}
	for i, r := range warm {
		if r.Meta.Checkpoint != nil {
			t.Errorf("cell %d carries checkpoint meta %+v, want none", i, r.Meta.Checkpoint)
		}
	}
	if ms.saves != 0 || ms.loads != 0 {
		t.Fatalf("store touched for non-checkpointable cells: saves=%d loads=%d", ms.saves, ms.loads)
	}
}

// TestCheckpointMetaMerged: serving layers stamping their own Meta must
// carry the checkpoint provenance a cell arrived with.
func TestCheckpointMetaMerged(t *testing.T) {
	ck := &CheckpointMeta{Resumed: true, ResumeEpoch: 4000, EpochsSaved: 4000, Written: 2}
	m := RunMeta{DurationMS: 5, Cached: true}.Merged(&RunMeta{Checkpoint: ck})
	if m.Checkpoint != ck {
		t.Fatalf("Merged dropped checkpoint provenance: %+v", m.Checkpoint)
	}
	own := &CheckpointMeta{Written: 1}
	if m = (RunMeta{Checkpoint: own}).Merged(&RunMeta{Checkpoint: ck}); m.Checkpoint != own {
		t.Fatal("Merged overwrote the layer's own checkpoint meta")
	}
}

// failStore breaks SaveCheckpoint; the run must still complete correctly.
type failStore struct{ memStore }

func (f *failStore) SaveCheckpoint(string, []byte) error {
	return errors.New("disk full")
}

// TestCheckpointSaveFailureHarmless: a store that cannot persist (disk
// full) only costs resume depth — the cell still completes with the
// correct result.
func TestCheckpointSaveFailureHarmless(t *testing.T) {
	ctx := context.Background()
	cell := Cell{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}}
	cold := SweepContext(ctx, []Cell{cell}, Options{Workers: 1})
	fs := &failStore{memStore{data: make(map[string][]byte)}}
	warm := SweepContext(ctx, []Cell{cell}, Options{
		Workers:    1,
		Checkpoint: &CheckpointOptions{Every: 8, Store: fs},
	})
	if got, want := StripMeta(warm), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("save failures perturbed the result")
	}
	if ck := warm[0].Meta.Checkpoint; ck == nil || ck.Written != 0 {
		t.Fatalf("checkpoint meta %+v, want written=0 under a failing store", warm[0].Meta.Checkpoint)
	}
}

// TestCheckpointThroughputCountsSimulatedEpochs: a checkpointed cell that
// concludes before its horizon (this sim/gst cell violates safety at epoch
// 26 of 40) reports throughput over the epochs it actually simulated, not
// over the horizon it never reached.
func TestCheckpointThroughputCountsSimulatedEpochs(t *testing.T) {
	cell := Cell{Scenario: ScenarioSimGST, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 3, GST: 40}}
	res := SweepContext(context.Background(), []Cell{cell}, Options{
		Workers:    1,
		Checkpoint: &CheckpointOptions{Every: 8, Store: newMemStore()},
	})[0]
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	violation, _ := res.Metric("violation_epoch")
	if violation <= 0 || violation >= float64(res.Params.Horizon) {
		t.Fatalf("violation_epoch = %v, want one before horizon %d", violation, res.Params.Horizon)
	}
	if res.Meta.Checkpoint == nil {
		t.Fatalf("cell did not run under the checkpoint policy: %+v", res.Meta)
	}
	want := violation / (res.Meta.DurationMS / 1000)
	if got := res.Meta.EpochsPerSec; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("epochs_per_sec = %v, want %v (%v epochs over %v ms)", got, want, violation, res.Meta.DurationMS)
	}
}

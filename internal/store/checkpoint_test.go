package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

func openCheckpoints(t *testing.T) *Checkpoints {
	t.Helper()
	r, err := OpenResults(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return r.Checkpoints()
}

func TestCheckpointsRoundTrip(t *testing.T) {
	c := openCheckpoints(t)
	const key = "sim/leak|p0=0.5;n=10000"
	payload := bytes.Repeat([]byte("epoch-state"), 100)

	if _, ok := c.LoadCheckpoint(key); ok {
		t.Fatal("empty store answered a checkpoint")
	}
	if err := c.SaveCheckpoint(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.LoadCheckpoint(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("LoadCheckpoint = (%d bytes, %t), want the saved payload", len(got), ok)
	}
	st := c.Stats()
	if st.Written != 1 || st.Loaded != 1 || st.Missed != 1 {
		t.Fatalf("stats %+v, want written=1 loaded=1 missed=1", st)
	}
	if st.Bytes != uint64(len(payload)) {
		t.Fatalf("stats bytes = %d, want %d", st.Bytes, len(payload))
	}
}

// TestCheckpointsNewestEpochRetention: one entry per cell — a later save
// replaces the earlier checkpoint, so the tier never accumulates stale
// epochs for a cell.
func TestCheckpointsNewestEpochRetention(t *testing.T) {
	c := openCheckpoints(t)
	const key = "cell"
	for i, payload := range []string{"epoch-500", "epoch-1000", "epoch-1500"} {
		if err := c.SaveCheckpoint(key, []byte(payload)); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	got, ok := c.LoadCheckpoint(key)
	if !ok || string(got) != "epoch-1500" {
		t.Fatalf("LoadCheckpoint = (%q, %t), want newest epoch only", got, ok)
	}
	if st := c.s.Stats(); st.Entries != 1 {
		t.Fatalf("store holds %d entries, want 1 (overwrite retention)", st.Entries)
	}
}

// TestCheckpointsDeleteOnCompletion: a completed cell's delete removes the
// entry (counted as GC) and is idempotent.
func TestCheckpointsDeleteOnCompletion(t *testing.T) {
	c := openCheckpoints(t)
	const key = "cell"
	if err := c.SaveCheckpoint(key, []byte("state")); err != nil {
		t.Fatal(err)
	}
	c.DeleteCheckpoint(key)
	if _, ok := c.LoadCheckpoint(key); ok {
		t.Fatal("deleted checkpoint still loads")
	}
	c.DeleteCheckpoint(key) // idempotent
	if st := c.Stats(); st.GCDeleted != 1 {
		t.Fatalf("gc_deleted = %d, want 1 (second delete is a no-op)", st.GCDeleted)
	}
	if st := c.s.Stats(); st.Entries != 0 {
		t.Fatalf("store holds %d entries after delete, want 0", st.Entries)
	}
}

// TestCheckpointsDamageReadsAsSilentMiss is the durability verdict table:
// a torn write, a truncation, a flipped payload bit, a flipped checksum,
// and a header version/magic skew all read as a silent miss — never an
// error — and the engine's next probe sees a clean cold start.
func TestCheckpointsDamageReadsAsSilentMiss(t *testing.T) {
	const key = "cell"
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 512)
	cases := []struct {
		name string
		mut  func(t *testing.T, path string)
	}{
		{"torn-write", func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated-to-header", func(t *testing.T, path string) {
			if err := os.Truncate(path, headerSize-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"payload-bit-flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-7] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"checksum-flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := binary.LittleEndian.Uint64(data[12:])
			binary.LittleEndian.PutUint64(data[12:], sum^1)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-skew", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			copy(data[:4], "GLS9")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := openCheckpoints(t)
			if err := c.SaveCheckpoint(key, payload); err != nil {
				t.Fatal(err)
			}
			tc.mut(t, c.s.path(checkpointKeyPrefix+key))

			if got, ok := c.LoadCheckpoint(key); ok {
				t.Fatalf("damaged checkpoint loaded (%d bytes)", len(got))
			}
			// The damaged file is cleared, so the next probe is a clean
			// cold start and the next save repairs the entry.
			if c.s.Stats().Entries != 0 {
				t.Fatal("damaged entry still on disk after the miss")
			}
			if err := c.SaveCheckpoint(key, payload); err != nil {
				t.Fatalf("re-save after damage: %v", err)
			}
			if got, ok := c.LoadCheckpoint(key); !ok || !bytes.Equal(got, payload) {
				t.Fatal("repaired checkpoint does not load")
			}
		})
	}
}

// TestCheckpointsSweepOrphanedTemp: a temp file left by a crashed writer
// is swept at Open and never surfaces as a checkpoint.
func TestCheckpointsSweepOrphanedTemp(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(shard, ".put-crashed")
	if err := os.WriteFile(orphan, []byte("half-written checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Checkpoints()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived Open (stat err %v)", err)
	}
	if st := c.s.Stats(); st.Entries != 0 {
		t.Fatalf("orphan counted as an entry: %+v", st)
	}
}

// TestCheckpointsShareStoreWithResults: a result entry and a checkpoint
// under the same canonical cell key coexist in one store directory — the
// namespace prefix keeps their content addresses apart — and deleting the
// checkpoint leaves the result untouched.
func TestCheckpointsShareStoreWithResults(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "sim/leak|cell"
	if err := s.Put(key, []byte("result-payload")); err != nil {
		t.Fatal(err)
	}
	c := &Checkpoints{s: s}
	if err := c.SaveCheckpoint(key, []byte("checkpoint-payload")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || string(got) != "result-payload" {
		t.Fatalf("result entry disturbed: (%q, %t)", got, ok)
	}
	if got, ok := c.LoadCheckpoint(key); !ok || string(got) != "checkpoint-payload" {
		t.Fatalf("checkpoint entry disturbed: (%q, %t)", got, ok)
	}
	c.DeleteCheckpoint(key)
	if got, ok := s.Get(key); !ok || string(got) != "result-payload" {
		t.Fatalf("checkpoint GC deleted the result entry: (%q, %t)", got, ok)
	}
}

// CorruptCheckpointForTest truncates the on-disk checkpoint entry for a
// cell mid-payload, simulating a torn write; it reports whether an entry
// existed to damage.
func CorruptCheckpointForTest(c *Checkpoints, cellKey string) (bool, error) {
	return tear(c.s.path(checkpointKeyPrefix + cellKey))
}

// TestCorruptCheckpointForTest pins the torn-write helper above: it reports
// entry presence and leaves a torn file that no load accepts.
func TestCorruptCheckpointForTest(t *testing.T) {
	c := openCheckpoints(t)
	if ok, err := CorruptCheckpointForTest(c, "absent"); ok || err != nil {
		t.Fatalf("CorruptCheckpointForTest(absent) = (%t, %v), want (false, nil)", ok, err)
	}
	if err := c.SaveCheckpoint("cell", bytes.Repeat([]byte("x"), 256)); err != nil {
		t.Fatal(err)
	}
	if ok, err := CorruptCheckpointForTest(c, "cell"); !ok || err != nil {
		t.Fatalf("CorruptCheckpointForTest(cell) = (%t, %v), want (true, nil)", ok, err)
	}
	if _, ok := c.LoadCheckpoint("cell"); ok {
		t.Fatal("torn checkpoint loaded")
	}
}

// TestCheckpointKeyPrefixUnprintable documents why the namespace prefix
// can never collide with a canonical cell key: cell keys are printable
// scenario/param strings, the prefix embeds a NUL.
func TestCheckpointKeyPrefixUnprintable(t *testing.T) {
	if !strings.ContainsRune(checkpointKeyPrefix, 0) {
		t.Fatal("checkpoint namespace prefix lost its NUL separator")
	}
}

// leakCheckpoint plants the checkpoint of a small sim/leak cell with the
// honest split p0 at epoch 16 and returns the cell, its key and its cold
// result.
func leakCheckpoint(t *testing.T, c *Checkpoints, p0 float64) (engine.Cell, string, engine.Result) {
	t.Helper()
	ctx := context.Background()
	cell := engine.Cell{Scenario: engine.ScenarioSimLeak, Params: engine.Params{P0: p0, N: 64, Horizon: 40, Seed: 1}}
	sc, _ := engine.Lookup(cell.Scenario)
	cs := sc.(engine.CheckpointableScenario)
	pre, err := cs.RunTo(ctx, cell.Params.WithDefaults(sc.Defaults()), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := cs.EncodePrefix(&frame, pre); err != nil {
		t.Fatal(err)
	}
	key, _ := engine.CanonicalCellKey(nil, cell)
	if err := c.SaveCheckpoint(key, frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	cold, err := engine.RunContext(ctx, cell.Scenario, cell.Params)
	if err != nil {
		t.Fatal(err)
	}
	return cell, key, cold
}

// reusingCheckpoints reads another entry through the store's free list as
// soon as it has lent a checkpoint, so the buffer the checkpoint was lent
// from is overwritten while the cell it resumes is still running.
type reusingCheckpoints struct {
	*Checkpoints
	t     *testing.T
	other string
}

func (r reusingCheckpoints) ReadCheckpoint(cellKey string, use func(payload []byte) bool) bool {
	var lent, was []byte
	ok := r.Checkpoints.ReadCheckpoint(cellKey, func(p []byte) bool { lent, was = p, bytes.Clone(p); return use(p) })
	r.s.read(checkpointKeyPrefix+r.other, func(p []byte) bool {
		if ok && (&p[0] != &lent[0] || bytes.Equal(lent, was)) {
			r.t.Fatal("the lent buffer was not read over")
		}
		return true
	})
	return ok
}

// TestCheckpointResumeOutlivesLentBuffer: a cell resumed from a checkpoint
// lent out of the store's read buffer keeps nothing of the buffer, which
// the next read writes over: it finishes with the cold run's result.
func TestCheckpointResumeOutlivesLentBuffer(t *testing.T) {
	c := openCheckpoints(t)
	// A larger entry read first leaves a buffer both frames fit in.
	if err := c.s.Put("large", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.s.Get("large"); !ok {
		t.Fatal("large entry missed")
	}
	cell, _, cold := leakCheckpoint(t, c, 0.5)
	_, other, _ := leakCheckpoint(t, c, 0.4)
	st := reusingCheckpoints{Checkpoints: c, t: t, other: other}
	res, err := engine.RunCell(context.Background(), cell, engine.Options{Checkpoint: &engine.CheckpointOptions{Every: -1, Store: st}})
	if err != nil {
		t.Fatal(err)
	}
	if ck := res.Meta.Checkpoint; ck == nil || !ck.Resumed || ck.ResumeEpoch != 16 {
		t.Fatalf("checkpoint meta %+v, want a resume from epoch 16", res.Meta.Checkpoint)
	}
	if !reflect.DeepEqual(res.WithoutMeta(), cold.WithoutMeta()) {
		t.Fatalf("resumed %+v, cold %+v", res.WithoutMeta(), cold.WithoutMeta())
	}
}

// TestCheckpointUndecodableRecomputes: a checkpoint whose entry is intact
// but whose payload does not decode is refused where it is lent: counted a
// checkpoint miss and a corrupt store read, removed, and the cell runs cold
// to the cold result.
func TestCheckpointUndecodableRecomputes(t *testing.T) {
	r, err := OpenResults(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := r.Checkpoints()
	cell, key, cold := leakCheckpoint(t, c, 0.5)
	if err := c.SaveCheckpoint(key, []byte("not a checkpoint")); err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunCell(context.Background(), cell, engine.Options{Checkpoint: &engine.CheckpointOptions{Every: -1, Store: c}})
	if err != nil {
		t.Fatal(err)
	}
	if ck := res.Meta.Checkpoint; ck == nil || ck.Resumed || !reflect.DeepEqual(res.WithoutMeta(), cold.WithoutMeta()) {
		t.Fatalf("got %+v (checkpoint %+v), want the cold result run cold", res.WithoutMeta(), res.Meta.Checkpoint)
	}
	if st, cst := r.Stats(), c.Stats(); cst.Missed != 1 || cst.Loaded != 0 || cst.GCDeleted != 0 || st.Corrupt != 1 || st.Entries != 0 {
		t.Errorf("store %+v, checkpoints %+v: want one corrupt miss, the entry removed", st, cst)
	}
}

package store

import "sync/atomic"

// checkpointKeyPrefix namespaces checkpoint entries away from result
// entries inside one shared store directory: the content address is the
// SHA-256 of the full key, so a cell's checkpoint and its result can
// never collide even though both are keyed by the same canonical cell
// key. One entry per cell — Save overwrites, which IS the retention
// policy (only the newest epoch survives), and a completed cell's Delete
// leaves nothing behind, so the checkpoint tier cannot grow beyond one
// in-flight entry per running cell.
const checkpointKeyPrefix = "checkpoint\x00"

// CheckpointStats is a point-in-time summary of the checkpoint tier's
// lifetime counters since Open.
type CheckpointStats struct {
	// Written counts checkpoint saves; Bytes their cumulative payload
	// size.
	Written uint64 `json:"written"`
	Bytes   uint64 `json:"bytes"`
	// Loaded counts successful checkpoint probes (a starting cell found a
	// valid checkpoint); Missed counts probes that found nothing valid.
	Loaded uint64 `json:"loaded"`
	Missed uint64 `json:"missed"`
	// GCDeleted counts checkpoints removed after their cell completed.
	GCDeleted uint64 `json:"gc_deleted"`
}

// Checkpoints is the durable mid-cell checkpoint tier: an opaque-payload
// namespace inside a Store, keyed by canonical cell key. It inherits the
// store's whole durability contract — temp+rename atomic writes, torn/
// truncated/bit-flipped entries read as silent misses with the damaged
// file removed, orphaned temp files swept at Open — so a crash at any
// instant costs at most one recomputed checkpoint interval, never an
// error. It implements engine.CheckpointStore.
type Checkpoints struct {
	s *Store

	written, bytes, loaded, missed, gcDeleted atomic.Uint64
}

// Checkpoints returns the checkpoint tier sharing this result store's
// directory and underlying store — the serve fabric's layout, where a
// worker's -store holds both its results and its in-flight checkpoints.
// The two tiers share the directory and the write path; only the key
// namespace and counters differ.
func (r *Results) Checkpoints() *Checkpoints { return &Checkpoints{s: r.s} }

// SaveCheckpoint atomically persists the cell's current checkpoint,
// replacing any older one (newest-epoch retention by construction).
func (c *Checkpoints) SaveCheckpoint(cellKey string, payload []byte) error {
	err := c.s.Put(checkpointKeyPrefix+cellKey, payload)
	if err == nil {
		c.written.Add(1)
		c.bytes.Add(uint64(len(payload)))
	}
	return err
}

// ReadCheckpoint lends the cell's newest valid checkpoint to use in the
// buffer the store read it into, which goes back to the free list when use
// returns. Any damage — a missing entry, a torn or truncated file, a
// checksum mismatch — reads as a miss, and so does a payload use refuses,
// which is dropped as corrupt; the engine then starts the cell cold.
func (c *Checkpoints) ReadCheckpoint(cellKey string, use func(payload []byte) bool) bool {
	ok := c.s.read(checkpointKeyPrefix+cellKey, use)
	if ok {
		c.loaded.Add(1)
	} else {
		c.missed.Add(1)
	}
	return ok
}

// LoadCheckpoint returns a copy of the cell's newest valid checkpoint
// (ReadCheckpoint's payload).
func (c *Checkpoints) LoadCheckpoint(cellKey string) ([]byte, bool) {
	var payload []byte
	ok := c.ReadCheckpoint(cellKey, func(p []byte) bool { payload = append([]byte(nil), p...); return true })
	return payload, ok
}

// DeleteCheckpoint removes the cell's checkpoint; the engine calls it
// when the cell completes.
func (c *Checkpoints) DeleteCheckpoint(cellKey string) {
	if c.s.Delete(checkpointKeyPrefix + cellKey) {
		c.gcDeleted.Add(1)
	}
}

// Stats reports the checkpoint tier's lifetime counters.
func (c *Checkpoints) Stats() CheckpointStats {
	return CheckpointStats{
		Written:   c.written.Load(),
		Bytes:     c.bytes.Load(),
		Loaded:    c.loaded.Load(),
		Missed:    c.missed.Load(),
		GCDeleted: c.gcDeleted.Load(),
	}
}

package store

import (
	"bytes"
	"os"

	"repro/internal/engine"
)

// Results is the typed view of a Store holding engine.Result payloads —
// the layer the server's tiered cache and the client's read-through use.
// Keys are canonical cell keys (engine.CellKey); payloads are JSON-encoded
// results with execution metadata stripped, so a stored entry is exactly
// the deterministic payload and warm/cold/sharded producers write
// bit-identical bytes for the same cell.
type Results struct {
	s *Store
}

// OpenResults opens (creating if needed) a result store rooted at dir.
func OpenResults(dir string) (*Results, error) {
	s, err := Open(dir)
	if err != nil {
		return nil, err
	}
	return &Results{s: s}, nil
}

// Get returns the stored result for the canonical key, decoded from the
// buffer the entry was read into. A payload that passes the integrity
// header but no longer decodes (engine.DecodePayload: a result-schema change
// across versions) is treated exactly like corruption: the entry is dropped
// and the caller recomputes and rewrites it.
func (r *Results) Get(key string) (engine.Result, bool) {
	var res engine.Result
	ok := r.s.read(key, func(payload []byte) bool {
		var err error
		res, err = engine.DecodePayload(payload)
		return err == nil
	})
	return res, ok
}

// Put stores the result's payload (engine.EncodePayload) under the
// canonical key: execution metadata is stripped, because timings and
// cache/warm provenance are per-process facts and the store holds only the
// deterministic payload.
func (r *Results) Put(key string, res engine.Result) error {
	payload, err := engine.EncodePayload(res)
	if err != nil {
		return err
	}
	return r.s.Put(key, payload)
}

// GetPayload returns a copy of the payload stored under key, the result
// tier's unit (engine.ResultTier). It is checked as Get decodes it
// (engine.CheckPayload), so a payload that no longer decodes is a counted
// corrupt miss here too.
func (r *Results) GetPayload(key string) ([]byte, bool) {
	var held []byte
	ok := r.s.read(key, func(payload []byte) bool {
		if engine.CheckPayload(payload) != nil {
			return false
		}
		held = bytes.Clone(payload)
		return true
	})
	return held, ok
}

// PutPayload stores a payload engine.EncodePayload wrote under key.
func (r *Results) PutPayload(key string, payload []byte) error { return r.s.Put(key, payload) }

// Stats reports the underlying store's footprint and counters.
func (r *Results) Stats() Stats { return r.s.Stats() }

// Close flushes and closes the underlying store.
func (r *Results) Close() error { return r.s.Close() }

// CorruptForTest damages the on-disk entry for key by truncating it
// mid-payload, simulating a torn write; it reports whether an entry
// existed to damage. Exposed for the durability suites that live outside
// this package (internal/server's restart and corruption tests).
func CorruptForTest(r *Results, key string) (bool, error) {
	return tear(pathString(r.s.appendPath(nil, key)))
}

// tear truncates the file at path to half its length, if it exists.
func tear(path string) (bool, error) {
	info, err := os.Stat(path)
	if err != nil {
		return false, nil
	}
	return true, os.Truncate(path, info.Size()/2)
}

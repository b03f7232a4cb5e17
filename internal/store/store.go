// Package store is the persistent tier of the sweep fabric: a
// content-addressed on-disk result store keyed by the canonical cell key
// (engine.CellKey — scenario plus resolved params, the same string
// the server's in-memory LRU keys by). Every cell of the reproduction is
// seed-deterministic, so a stored payload is as good as a recomputation:
// repeated grids survive process restarts at disk speed, and warm, cold,
// and sharded sweeps all share one store.
//
// Durability model: entries are written to a temp file in the store
// directory, where every entry lives, and renamed into place, so a reader
// never observes a half-written entry under its final name. Every entry
// carries a magic/version/length/checksum header plus the full key, so a
// torn write, a truncation, a flipped bit, or a hash collision is detected
// on read and treated as a miss (the bad file is removed so the next write
// repairs it) — corruption can cost a recomputation, never an error.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Entry file layout (little-endian):
//
//	magic   [4]byte  "GLS1"
//	keyLen  uint32
//	payLen  uint32
//	sum     uint64   FNV-64a over key bytes then payload bytes
//	key     [keyLen]byte
//	payload [payLen]byte
const (
	magic      = "GLS1"
	headerSize = 4 + 4 + 4 + 8
	// entryExt marks finished entries. Temp files start with tempPrefix
	// and are swept by Open's scan.
	entryExt   = ".res"
	tempPrefix = ".put-"
)

// Stats is a point-in-time summary of a store: resident entries/bytes and
// the lifetime operation counters since Open.
type Stats struct {
	Entries int64  `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Puts    uint64 `json:"puts"`
	// Corrupt counts reads that found a damaged entry (torn write,
	// truncation, checksum or key mismatch) and degraded to a miss.
	Corrupt uint64 `json:"corrupt,omitempty"`
}

// Store is a thread-safe content-addressed byte store. The zero value is
// not usable; construct with Open.
type Store struct {
	dir string
	// free holds the buffers entries are read into between reads: at most
	// GOMAXPROCS idle, each as long as the longest entry it held, and the
	// collector does not empty it, so a steady stream of hits reads into
	// buffers the store already has. Checkpoints are read through it too,
	// so checkpoint-sized buffers circulate on it and a checkpoint is lent
	// from one (Checkpoints.ReadCheckpoint).
	free chan []byte

	hits, misses, puts, corrupt atomic.Uint64
	entries, bytes              atomic.Int64

	mu     sync.Mutex // serializes writes and close
	closed bool
}

// Open creates dir if needed, scans any existing entries into the
// entry/byte counters (a restarted process resumes serving its
// predecessor's results), and returns the store. Leftover temp files from
// interrupted writes are swept.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: filepath.Clean(dir), free: make(chan []byte, runtime.GOMAXPROCS(0))}
	if err := s.scan(s.dir, ""); err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	return s, nil
}

// scan counts the entries in dir, which is the store directory or, when
// shard is not empty, its shard of that name, and removes the temp files
// there. It reads the directory once, in the order the file system lists
// it: a count needs no sorting. A shard is a subdirectory named by two hex
// digits, left by the layout that kept each entry under
// <dir>/<first byte of its address>/. Its entries are renamed to their
// addresses in the store directory and counted, and the shard goes once it
// is empty. An entry whose rename fails stays where it was and reads as a
// miss, so its cell is recomputed and written at its address.
func (s *Store) scan(dir, shard string) error {
	files, err := readDir(dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		switch name := f.Name(); {
		case shard == "" && f.IsDir() && len(name) == 2 && strings.Trim(name, "0123456789abcdef") == "":
			sub := filepath.Join(dir, name)
			_ = s.scan(sub, name) // an unreadable shard's entries read as misses
			os.Remove(sub)
		case strings.HasPrefix(name, tempPrefix):
			os.Remove(filepath.Join(dir, name)) // interrupted write; its rename never happened
		case strings.HasSuffix(name, entryExt):
			info, err := f.Info()
			if err == nil && (shard == "" || os.Rename(filepath.Join(dir, name), filepath.Join(s.dir, shard+name)) == nil) {
				s.entries.Add(1)
				s.bytes.Add(info.Size())
			}
		}
	}
	return nil
}

// readDir lists a directory unsorted.
func readDir(dir string) ([]fs.DirEntry, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.ReadDir(-1)
}

// path maps a key to its content address: the SHA-256 of the key in hex,
// a file in the store directory. The address is built on the stack; the
// string it returns is its one allocation.
func (s *Store) path(key string) string {
	var buf [512]byte
	sum := sha256.Sum256(append(buf[:0], key...))
	p := append(append(buf[:0], s.dir...), filepath.Separator)
	p = hex.AppendEncode(p, sum[:])
	return string(append(p, entryExt...))
}

// checksum is the entry integrity hash: FNV-64a over the key bytes, then
// the payload bytes.
func checksum(parts ...[]byte) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum64()
}

// read hands the payload stored under key to use, checked in place in a
// buffer off the free list that grows only to the file's length, and goes
// back when use returns. A missing entry is a miss. An entry that cannot be
// read whole, fails a check or holds a payload use refuses is counted
// corrupt, removed and missed. It reports whether use took the payload.
func (s *Store) read(key string, use func(payload []byte) bool) bool {
	path := s.path(key)
	f, err := os.Open(path)
	if err != nil {
		s.misses.Add(1)
		return false
	}
	var data []byte
	select {
	case data = <-s.free:
	default:
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		if int64(cap(data)) < size {
			data = make([]byte, size)
		}
		data = data[:size]
		_, err = f.ReadAt(data, 0)
	}
	f.Close()
	payload, ok := decode(key, data)
	if ok = ok && err == nil && use(payload); ok {
		s.hits.Add(1)
	} else {
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.removeEntry(path, size)
	}
	select {
	case s.free <- data:
	default:
	}
	return ok
}

// decode checks an entry in place — magic, lengths, key and checksum —
// and returns its payload.
func decode(key string, data []byte) ([]byte, bool) {
	if len(data) < headerSize || string(data[:4]) != magic {
		return nil, false
	}
	keyLen := binary.LittleEndian.Uint32(data[4:])
	payLen := binary.LittleEndian.Uint32(data[8:])
	sum := binary.LittleEndian.Uint64(data[12:])
	if uint64(len(data)) != headerSize+uint64(keyLen)+uint64(payLen) {
		return nil, false
	}
	if string(data[headerSize:headerSize+keyLen]) != key || checksum(data[headerSize:]) != sum {
		return nil, false
	}
	return data[headerSize+keyLen:], true
}

// ErrClosed is returned by Put after Close.
var ErrClosed = errors.New("store: closed")

// Put stores payload under key, atomically: the entry is written to a temp
// file in the store directory — header, key and payload, with no copy
// assembled — synced, and renamed to its address, so concurrent readers
// see either the old entry or the new one, never a partial write. A failed
// write or sync leaves nothing behind. Re-putting a key overwrites its
// entry. The new name is durable once the directory is synced (Close).
func (s *Store) Put(key string, payload []byte) error {
	var header [headerSize]byte
	k := []byte(key)
	copy(header[:], magic)
	binary.LittleEndian.PutUint32(header[4:], uint32(len(key)))
	binary.LittleEndian.PutUint32(header[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(header[12:], checksum(k, payload))
	size := int64(headerSize + len(key) + len(payload))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	path := s.path(key)
	tmp, err := os.CreateTemp(s.dir, tempPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, part := range [][]byte{header[:], k, payload} {
		if err == nil {
			_, err = tmp.Write(part)
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	var prior int64 = -1
	if info, err := os.Stat(path); err == nil {
		prior = info.Size()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if prior < 0 {
		s.entries.Add(1)
		s.bytes.Add(size)
	} else {
		s.bytes.Add(size - prior)
	}
	s.puts.Add(1)
	return nil
}

// Delete removes the entry stored under key, if present, and reports
// whether an entry was removed. Deleting a missing key is a no-op. The
// checkpoint tier uses it to garbage-collect a completed cell's
// checkpoint; result entries are never deleted in normal operation.
func (s *Store) Delete(key string) bool {
	path := s.path(key)
	info, err := os.Stat(path)
	if err != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Remove(path); err != nil {
		return false
	}
	s.entries.Add(-1)
	s.bytes.Add(-info.Size())
	return true
}

// removeEntry deletes a damaged entry and adjusts the counters.
func (s *Store) removeEntry(path string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Remove(path); err == nil {
		s.entries.Add(-1)
		s.bytes.Add(-size)
	}
}

// Stats reports the store's resident footprint and lifetime counters.
func (s *Store) Stats() Stats {
	return Stats{
		Entries: s.entries.Load(),
		Bytes:   s.bytes.Load(),
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Puts:    s.puts.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// Close syncs the store directory and rejects further writes. Put syncs
// each entry's bytes before renaming them to its address, but a rename is
// a change to the directory, which a crash can lose until the directory is
// synced. Every entry lives in that one directory, so this one sync pins
// every rename and removal made before it; an entry whose name a crash
// lost reads as a miss and is recomputed. Reads keep working — a
// draining server can still serve hits while shutting down.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if d, err := os.Open(s.dir); err == nil {
		err = d.Sync()
		d.Close()
		if err != nil && !errors.Is(err, errors.ErrUnsupported) {
			return fmt.Errorf("store: syncing %s: %w", s.dir, err)
		}
	}
	return nil
}

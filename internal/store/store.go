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
// repairs it) — corruption can cost a recomputation, never an error. Close
// syncs the store directory when this store changed it: a rename or removal
// is durable once its directory is synced, and a store that only read has
// nothing to pin.
//
// The store is unix-only: it reads entries, lists its directory and
// renames through package syscall, with no os.File on those paths. Its
// paths are NUL-terminated bytes in buffers on the stack. On linux (amd64
// and arm64) the system calls take them as they are, so a reopen and a hit
// do no heap work per entry; other unix platforms go through the same
// three helpers (sys_other.go), which copy each name or path to a string.
package store

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
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

	mu     sync.Mutex // serializes writes and close, and guards the fields below
	closed bool
	// dirty records that this store created, renamed or removed a name in
	// its directory since Open, so Close has a change to sync; dirSyncs
	// counts the syncs Close made.
	dirty    bool
	dirSyncs int
}

// Open scans any existing entries of dir into the entry/byte counters (a
// restarted process resumes serving its predecessor's results) and returns
// the store; it creates dir when the scan finds it missing. Leftover temp
// files from interrupted writes are swept.
func Open(dir string) (*Store, error) {
	s := &Store{dir: filepath.Clean(dir), free: make(chan []byte, runtime.GOMAXPROCS(0))}
	err := s.scan(s.dir, "")
	if errors.Is(err, syscall.ENOENT) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		err = s.scan(s.dir, "")
	}
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	return s, nil
}

// scan counts the entries in dir, which is the store directory or, when
// shard is not empty, its shard of that name, and removes the temp files
// there. It reads the directory's records once into a buffer on the stack,
// in the order the file system lists them (a count needs no sorting),
// classifies each name where it was read, and lstats each entry through a
// path built on the stack: that stat is the only exact size after a
// reopen. A string is built only to remove a temp file, and for a shard. A
// directory is never an entry. A shard is a subdirectory named by two hex
// digits, left by the layout that kept each entry under <dir>/<first byte
// of its address>/. After the listing its entries are renamed to their
// addresses in the store directory and counted, and the shard goes once it
// is empty. An entry whose rename fails stays where it was and reads as a
// miss, so its cell is recomputed and written at its address.
func (s *Store) scan(dir, shard string) error {
	var pathBuf [512]byte
	path := append(append(pathBuf[:0], dir...), 0)
	fd, err := open(path, syscall.O_RDONLY|syscall.O_DIRECTORY)
	if err != nil {
		return err
	}
	defer syscall.Close(fd)
	path = append(path[:len(dir)], '/') // dir is clean; each name is appended to it
	base := len(path)
	var buf [8192]byte
	var shards []string
	for {
		var n int
		if err := retry(func() (err error) { n, err = syscall.ReadDirent(fd, buf[:]); return err }); err != nil {
			return err
		}
		if n <= 0 {
			break
		}
		for rest := buf[:n]; len(rest) > 0; {
			var name []byte
			if name, rest = nextDirent(rest); name == nil {
				continue
			}
			path = append(append(path[:base], name...), 0)
			switch {
			case shard == "" && len(name) == 2 && len(bytes.Trim(name, "0123456789abcdef")) == 0:
				shards = append(shards, string(name))
			case bytes.HasPrefix(name, []byte(tempPrefix)):
				s.changed(unlink(pathString(path))) // interrupted write; its rename never happened
			case bytes.HasSuffix(name, []byte(entryExt)):
				var st syscall.Stat_t
				if lstat(path, &st) != nil || isDir(&st) {
					continue
				}
				if shard == "" || s.changed(retry(func() error { return syscall.Rename(pathString(path), s.dir+"/"+shard+string(name)) })) {
					s.entries.Add(1)
					s.bytes.Add(st.Size)
				}
			}
		}
	}
	// A shard's entries move up only once the listing is done: a name
	// added to a directory while it is read may be listed again.
	for _, name := range shards {
		sub := dir + "/" + name
		_ = s.scan(sub, name) // an unreadable shard's entries read as misses; a file is no shard
		s.changed(retry(func() error { return syscall.Rmdir(sub) }))
	}
	return nil
}

// retry calls f until it fails with something other than EINTR, as
// package os does around the system calls the store makes.
func retry(f func() error) error {
	for {
		if err := f(); err != syscall.EINTR {
			return err
		}
	}
}

// open opens the NUL-terminated path close-on-exec.
func open(path []byte, mode int) (fd int, err error) {
	err = retry(func() error { fd, err = openat(path, mode|syscall.O_CLOEXEC); return err })
	return fd, err
}

// lstat stats the NUL-terminated path into st, not following a symlink.
func lstat(path []byte, st *syscall.Stat_t) error {
	return retry(func() error { return fstatat(path, st) })
}

// pathString is the NUL-terminated path as a string, for the system calls
// the store makes only on rare paths.
func pathString(path []byte) string { return string(path[:len(path)-1]) }

// unlink removes the file at path.
func unlink(path string) error { return retry(func() error { return syscall.Unlink(path) }) }

// isDir reports whether st describes a directory.
func isDir(st *syscall.Stat_t) bool { return st.Mode&syscall.S_IFMT == syscall.S_IFDIR }

// changed records a change to the store directory, for Close to sync, when
// the call that made it returned a nil err, and reports whether it did.
func (s *Store) changed(err error) bool {
	s.dirty = s.dirty || err == nil
	return err == nil
}

// appendPath appends key's content address to dst, NUL-terminated: the
// SHA-256 of the key in hex, a file in the store directory. The key is
// hashed from dst's spare room, so an address built in a buffer on the
// stack that holds the key allocates nothing.
func (s *Store) appendPath(dst []byte, key string) []byte {
	sum := sha256.Sum256(append(dst, key...))
	dst = append(append(dst, s.dir...), filepath.Separator)
	dst = hex.AppendEncode(dst, sum[:])
	return append(append(dst, entryExt...), 0)
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
// back when use returns. The entry is read through a bare descriptor:
// open, fstat, pread, close. A missing entry, or a directory at its
// address, is a miss. An entry that cannot be read whole, fails a check or
// holds a payload use refuses is counted corrupt, removed and missed. It
// reports whether use took the payload.
func (s *Store) read(key string, use func(payload []byte) bool) bool {
	var pathBuf [512]byte
	path := s.appendPath(pathBuf[:0], key)
	fd, err := open(path, syscall.O_RDONLY)
	if err != nil {
		s.misses.Add(1)
		return false
	}
	var st syscall.Stat_t
	if err = retry(func() error { return syscall.Fstat(fd, &st) }); err == nil && isDir(&st) {
		syscall.Close(fd)
		s.misses.Add(1)
		return false
	}
	var data []byte
	select {
	case data = <-s.free:
	default:
	}
	if err == nil {
		if int64(cap(data)) < st.Size {
			data = make([]byte, st.Size)
		}
		data = data[:st.Size]
		err = preadFull(fd, data)
	}
	syscall.Close(fd)
	payload, ok := decode(key, data)
	if ok = ok && err == nil && use(payload); ok {
		s.hits.Add(1)
	} else {
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.removeEntry(path, st.Size)
	}
	select {
	case s.free <- data:
	default:
	}
	return ok
}

// preadFull fills b from the start of the file fd.
func preadFull(fd int, b []byte) error {
	for off := 0; off < len(b); {
		var n int
		err := retry(func() (err error) { n, err = syscall.Pread(fd, b[off:], int64(off)); return err })
		if err != nil || n <= 0 {
			return cmp.Or(err, io.ErrUnexpectedEOF)
		}
		off += n
	}
	return nil
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
// entry; a directory at its address is refused before anything is written.
// The new name is durable once the directory is synced (Close).
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
	var pathBuf [512]byte
	addr := s.appendPath(pathBuf[:0], key)
	// One lstat of the address: the size an overwrite replaces, or a
	// directory, which rename(2) cannot replace with a file.
	var st syscall.Stat_t
	prior := int64(-1)
	if lstat(addr, &st) == nil {
		if isDir(&st) {
			return fmt.Errorf("store: %s: %w", pathString(addr), syscall.EISDIR)
		}
		prior = st.Size
	}
	tmp, err := os.CreateTemp(s.dir, tempPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.dirty = true
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
	path := pathString(addr)
	if err := retry(func() error { return syscall.Rename(tmp.Name(), path) }); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", &os.LinkError{Op: "rename", Old: tmp.Name(), New: path, Err: err})
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
	var pathBuf [512]byte
	path := s.appendPath(pathBuf[:0], key)
	s.mu.Lock()
	defer s.mu.Unlock()
	var st syscall.Stat_t
	if lstat(path, &st) != nil || !s.changed(unlink(pathString(path))) {
		return false
	}
	s.entries.Add(-1)
	s.bytes.Add(-st.Size)
	return true
}

// removeEntry deletes the damaged entry at the NUL-terminated path and
// adjusts the counters.
func (s *Store) removeEntry(path []byte, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.changed(unlink(pathString(path))) {
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

// Close syncs the store directory, if this store changed it, and rejects
// further writes. Put syncs each entry's bytes before renaming them to its
// address, but a rename is a change to the directory, which a crash can
// lose until the directory is synced. Every entry lives in that one
// directory, so this one sync pins every rename and removal made before
// it; an entry whose name a crash lost reads as a miss and is recomputed.
// A store that only read has no change to pin and syncs nothing. Reads
// keep working — a draining server can still serve hits while shutting
// down.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if !s.dirty {
		return nil
	}
	if d, err := os.Open(s.dir); err == nil {
		s.dirSyncs++
		err = d.Sync()
		d.Close()
		if err != nil && !errors.Is(err, errors.ErrUnsupported) {
			return fmt.Errorf("store: syncing %s: %w", s.dir, err)
		}
	}
	return nil
}

package store

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// entryFixtureKey is the key testdata/gls1-entry.res is stored under: the
// canonical key of a 64-validator sim/gst cell.
const entryFixtureKey = "sim/gst|P0=0.5|Beta0=0|Mode=|Seed=3|N=64|Horizon=12|Sample=0|Rate=0|GST=6"

// plant writes entry bytes at key's content address, as a crash, a disk
// or another build might have left them.
func plant(t testing.TB, s *Store, key string, entry []byte) string {
	t.Helper()
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, entry, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEntryFixture: testdata/gls1-entry.res is the result entry the build
// that read entries with os.ReadFile and assembled them in one buffer wrote
// for entryFixtureKey's cell. This build reads it back as that cell's
// result, and a Put of the same key and payload writes the same bytes.
func TestEntryFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/gls1-entry.res")
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenResults(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plant(t, r.s, entryFixtureKey, want)
	payload, ok := r.s.Get(entryFixtureKey)
	if !ok {
		t.Fatal("the checked-in entry reads as a miss")
	}
	res, ok := r.Get(entryFixtureKey)
	if !ok || res.Scenario != "sim/gst" || res.Params.N != 64 || len(res.Metrics) == 0 {
		t.Fatalf("the checked-in entry decodes to %+v, %v", res, ok)
	}
	fresh, err := OpenResults(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.s.Put(entryFixtureKey, payload); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fresh.s.path(entryFixtureKey))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("this build writes %d bytes for the same key and payload, the checked-in entry is %d", len(got), len(want))
	}
}

// FuzzStoreEntry: whatever bytes sit at a key's content address, a read
// either returns exactly the payload of an entry whose magic, lengths, key
// and checksum hold — checked here against hash/fnv, apart from the
// store's own hash — or is a miss counted corrupt, with the file removed.
// Either way it allocates no more than the file holds, whatever lengths
// the header claims. Seeded with the checked-in entry.
func FuzzStoreEntry(f *testing.F) {
	fixture, err := os.ReadFile("testdata/gls1-entry.res")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(fixture[:headerSize])
	f.Add([]byte{})
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, entry []byte) {
		path := plant(t, s, entryFixtureKey, entry)
		want, intact := entryPayload(entryFixtureKey, entry)
		before := s.Stats()
		var got []byte
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ok := s.read(entryFixtureKey, func(p []byte) bool {
			got = append(got[:0], p...)
			return true
		})
		runtime.ReadMemStats(&m1)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 2*uint64(len(entry))+16<<10 {
			t.Fatalf("reading a %d-byte entry allocated %d bytes", len(entry), grew)
		}
		after := s.Stats()
		switch {
		case ok != intact:
			t.Fatalf("read = %v for an entry whose checks say %v", ok, intact)
		case ok && (!bytes.Equal(got, want) || after.Hits != before.Hits+1):
			t.Fatalf("hit returned %d bytes, want the %d-byte payload (hits %d -> %d)", len(got), len(want), before.Hits, after.Hits)
		case !ok && (after.Misses != before.Misses+1 || after.Corrupt != before.Corrupt+1):
			t.Fatalf("damaged entry counted misses %d -> %d, corrupt %d -> %d", before.Misses, after.Misses, before.Corrupt, after.Corrupt)
		}
		if _, err := os.Stat(path); !ok && !os.IsNotExist(err) {
			t.Fatal("damaged entry left on disk")
		}
	})
}

// entryPayload parses an entry the way its layout reads on paper.
func entryPayload(key string, entry []byte) ([]byte, bool) {
	if len(entry) < headerSize || string(entry[:4]) != magic {
		return nil, false
	}
	keyLen := int(binary.LittleEndian.Uint32(entry[4:]))
	payLen := int(binary.LittleEndian.Uint32(entry[8:]))
	if len(entry) != headerSize+keyLen+payLen || string(entry[headerSize:headerSize+keyLen]) != key {
		return nil, false
	}
	sum := fnv.New64a()
	sum.Write(entry[headerSize:])
	return entry[headerSize+keyLen:], sum.Sum64() == binary.LittleEndian.Uint64(entry[12:])
}

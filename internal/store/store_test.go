package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/engine"
)

// Get returns a copy of the payload stored under key: the raw read the
// tests check entries with. The product reads in place (Results.Get,
// Checkpoints.ReadCheckpoint).
func (s *Store) Get(key string) ([]byte, bool) {
	var payload []byte
	ok := s.read(key, func(p []byte) bool { payload = bytes.Clone(p); return true })
	return payload, ok
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "leaksim|P0=0.5|N=10000"
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store must miss")
	}
	payload := []byte(`{"scenario":"leaksim"}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	if _, err := os.Stat(s.path(key)); err != nil {
		t.Errorf("the entry must be on disk: %v", err)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v", st)
	}
	if want := int64(headerSize + len(key) + len(payload)); st.Bytes != want {
		t.Errorf("bytes = %d, want %d", st.Bytes, want)
	}

	// Overwrite adjusts bytes without duplicating the entry.
	bigger := append(payload, []byte(` `)...)
	if err := s.Put(key, bigger); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Entries != 1 || st.Bytes != int64(headerSize+len(key)+len(bigger)) {
		t.Errorf("after overwrite: stats = %+v", st)
	}
}

// entryPath exposes the content address for damage tests.
func entryPath(t *testing.T, s *Store, key string) string {
	t.Helper()
	path := s.path(key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no entry on disk for %q: %v", key, err)
	}
	return path
}

// TestStoreDamageReadsAsMiss covers the torn-write contract: every way an
// entry can be damaged on disk — truncation mid-payload, truncation into
// the header, a flipped payload byte, garbage content, an empty file —
// must read as a miss (never an error), remove the bad entry, and let a
// subsequent Put repair it.
func TestStoreDamageReadsAsMiss(t *testing.T) {
	key := "leaksim|P0=0.5"
	payload := []byte(`{"scenario":"leaksim","metrics":[{"name":"m","value":1}]}`)
	for _, tc := range []struct {
		name   string
		damage func(path string, size int64) error
	}{
		{"truncated payload", func(p string, n int64) error { return os.Truncate(p, n-5) }},
		{"truncated header", func(p string, n int64) error { return os.Truncate(p, headerSize-3) }},
		{"empty file", func(p string, n int64) error { return os.Truncate(p, 0) }},
		{"flipped payload byte", func(p string, n int64) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)-3] ^= 0x40
			return os.WriteFile(p, data, 0o644)
		}},
		{"garbage content", func(p string, n int64) error {
			return os.WriteFile(p, []byte("not an entry at all"), 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			path := entryPath(t, s, key)
			info, _ := os.Stat(path)
			if err := tc.damage(path, info.Size()); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); ok {
				t.Fatalf("damaged entry served as a hit: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("damaged entry must be removed")
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 {
				t.Errorf("stats after damage = %+v, want 1 corrupt / 0 entries", st)
			}
			// The next write repairs the address.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Errorf("rewrite not served: %q, %v", got, ok)
			}
		})
	}
}

// TestStoreKeyMismatchReadsAsMiss plants another key's (valid) entry at
// this key's content address: the embedded full key disagrees, so the read
// must miss rather than serve a different cell's payload.
func TestStoreKeyMismatchReadsAsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("other", []byte("other payload")); err != nil {
		t.Fatal(err)
	}
	src := entryPath(t, s, "other")
	dst := s.path("victim")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(src)
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("victim"); ok {
		t.Fatalf("foreign entry served as a hit: %q", got)
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("late", nil); err != ErrClosed {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}

	// A leftover temp file from an interrupted write is swept on reopen.
	tmp := filepath.Join(dir, "ab")
	os.MkdirAll(tmp, 0o755)
	tmpFile := filepath.Join(tmp, ".put-12345")
	os.WriteFile(tmpFile, []byte("half an entr"), 0o644)

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.Entries != want.Entries || st.Bytes != want.Bytes {
		t.Errorf("reopened stats = %+v, want %d entries / %d bytes", st, want.Entries, want.Bytes)
	}
	if _, err := os.Stat(tmpFile); !os.IsNotExist(err) {
		t.Error("interrupted temp file must be swept on reopen")
	}
	for i := 0; i < 5; i++ {
		got, ok := re.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("key-%d not served after reopen: %q, %v", i, got, ok)
		}
	}
}

// TestShardedEntryMigrates: a store written in the layout that kept each
// entry in a shard directory named by its address's first byte,
// <dir>/<hex(sum[:1])>/<hex(sum[1:])>.res, stays warm. Open moves the
// checked-in entry to its address in the store directory, counts it at its
// size, removes the emptied shard and sweeps a temp file in the root.
func TestShardedEntryMigrates(t *testing.T) {
	entry, err := os.ReadFile("testdata/gls1-entry.res")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sum := sha256.Sum256([]byte(entryFixtureKey))
	shard := filepath.Join(dir, hex.EncodeToString(sum[:1]))
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard, hex.EncodeToString(sum[1:])+".res"), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ".put-12345")
	if err := os.WriteFile(tmp, []byte("half an entr"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenResults(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Entries != 1 || st.Bytes != int64(len(entry)) {
		t.Errorf("reopened stats = %+v, want 1 entry / %d bytes", st, len(entry))
	}
	if res, ok := r.Get(entryFixtureKey); !ok || res.Scenario != "sim/gst" {
		t.Fatalf("the sharded entry is not served: %+v, %v", res, ok)
	}
	if got, err := os.ReadFile(r.s.path(entryFixtureKey)); err != nil || !bytes.Equal(got, entry) {
		t.Errorf("the entry is not at its address in the store directory: %v", err)
	}
	for _, gone := range []string{shard, tmp} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("%s survived Open (stat err %v)", gone, err)
		}
	}
}

// TestStoreConcurrentAccess hammers one store from many goroutines mixing
// puts, gets, and overwrites of shared and distinct keys; the race
// detector (CI runs this package under -race) plus payload integrity are
// the assertions.
func TestStoreConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const rounds = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := fmt.Sprintf("own-%d", g)
			for i := 0; i < rounds; i++ {
				if err := s.Put("shared", []byte("shared payload")); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get("shared"); ok && string(got) != "shared payload" {
					t.Errorf("shared read tore: %q", got)
					return
				}
				payload := []byte(fmt.Sprintf("payload-%d-%d", g, i))
				if err := s.Put(own, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(own); !ok || !bytes.Equal(got, payload) {
					t.Errorf("own read = %q, %v; want %q", got, ok, payload)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 || st.Entries != goroutines+1 {
		t.Errorf("stats = %+v, want 0 corrupt / %d entries", st, goroutines+1)
	}
}

func TestResultsRoundTripStripsMeta(t *testing.T) {
	r, err := OpenResults(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Result{
		Scenario: "leaksim",
		Params:   engine.Params{P0: 0.5, N: 100}.WithDefaults(engine.Params{}),
		Metrics:  []engine.Metric{{Name: "conflict_epoch", Value: 4668}},
		Meta:     &engine.RunMeta{DurationMS: 123, Cached: true},
	}
	key := engine.CellKey(res.Scenario, res.Params)
	if err := r.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Get(key)
	if !ok {
		t.Fatal("stored result must hit")
	}
	if got.Meta != nil {
		t.Errorf("stored entry carries execution metadata: %+v", got.Meta)
	}
	if !reflect.DeepEqual(got, res.WithoutMeta()) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, res.WithoutMeta())
	}
}

// TestResultsUndecodablePayloadReadsAsMiss: an entry that passes the
// integrity header but does not decode as a Result (schema drift) is
// dropped and missed, never an error.
func TestResultsUndecodablePayloadReadsAsMiss(t *testing.T) {
	r, err := OpenResults(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.s.Put("k", []byte(`{"scenario": 42}`)); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Get("k"); ok {
		t.Fatalf("undecodable payload served as a hit: %+v", got)
	}
	st := r.Stats()
	if st.Corrupt != 1 || st.Entries != 0 || st.Hits != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want the bad entry dropped and recounted as a miss", st)
	}
	// CorruptForTest is the torn-write hook the cross-package suites use;
	// pin its behavior here.
	if err := r.Put("k2", engine.Result{Scenario: "s"}); err != nil {
		t.Fatal(err)
	}
	if ok, err := CorruptForTest(r, "k2"); !ok || err != nil {
		t.Fatalf("CorruptForTest = %v, %v", ok, err)
	}
	if _, ok := r.Get("k2"); ok {
		t.Error("truncated entry served as a hit")
	}
}

// TestCloseSyncsOnlyAChangedDirectory: Close syncs the store directory once
// when this store created, renamed or removed a name in it since Open — a
// put, a delete, a corrupt entry removed, a temp file swept by the scan —
// and not at all after a session that only read.
func TestCloseSyncsOnlyAChangedDirectory(t *testing.T) {
	const key = "leaksim|P0=0.5"
	for _, tc := range []struct {
		name    string
		prepare func(dir string) error // on the populated directory, before Open
		session func(s *Store) error
		want    int
	}{
		{"open get close", nil, func(s *Store) error {
			if _, ok := s.Get(key); !ok {
				return errors.New("stored entry missed")
			}
			if _, ok := s.Get("absent"); ok {
				return errors.New("absent key hit")
			}
			return nil
		}, 0},
		{"put", nil, func(s *Store) error { return s.Put("other", []byte("payload")) }, 1},
		{"delete", nil, func(s *Store) error {
			if !s.Delete(key) {
				return errors.New("delete removed nothing")
			}
			return nil
		}, 1},
		{"swept temp", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, tempPrefix+"12345"), []byte("half an entr"), 0o644)
		}, func(s *Store) error {
			if names, _ := filepath.Glob(filepath.Join(s.dir, tempPrefix+"*")); len(names) != 0 {
				return fmt.Errorf("temp files survived Open: %v", names)
			}
			return nil
		}, 1},
		{"corrupt entry removed", nil, func(s *Store) error {
			if _, err := tear(s.path(key)); err != nil {
				return err
			}
			if _, ok := s.Get(key); ok {
				return errors.New("torn entry served")
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 {
				return fmt.Errorf("stats = %+v, want the torn entry counted corrupt and removed", st)
			}
			return nil
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(key, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil || s.DirSyncs() != 1 {
				t.Fatalf("the populating store's Close = %v after %d syncs, want one", err, s.DirSyncs())
			}
			if tc.prepare != nil {
				if err := tc.prepare(dir); err != nil {
					t.Fatal(err)
				}
			}
			s, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.session(s); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.DirSyncs(); got != tc.want {
				t.Errorf("Close synced the directory %d times, want %d", got, tc.want)
			}
		})
	}
}

// TestDirectoryAtAddressIsNoEntry: a directory squatting at an entry's
// address is refused by Put before anything is written — no temp file, no
// counter moved, no change for Close to sync — read as a plain miss, and
// not counted by a reopen.
func TestDirectoryAtAddressIsNoEntry(t *testing.T) {
	const key = "leaksim|P0=0.5"
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(s.path(key), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte("payload")); !errors.Is(err, syscall.EISDIR) {
		t.Errorf("Put over a directory = %v, want EISDIR", err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, tempPrefix+"*")); len(names) != 0 {
		t.Errorf("a refused Put left temp files: %v", names)
	}
	if _, ok := s.Get(key); ok {
		t.Error("a directory served as a hit")
	}
	if st := s.Stats(); st != (Stats{Misses: 1}) {
		t.Errorf("stats = %+v, want one plain miss", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.DirSyncs(); n != 0 {
		t.Errorf("Close after a refused Put synced %d times, want 0", n)
	}
	if info, err := os.Stat(s.path(key)); err != nil || !info.IsDir() {
		t.Errorf("the directory did not survive: %v", err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("reopened stats = %+v, want the directory not counted", st)
	}
}

// TestScanMatchesReference: a reopen's count, made from the directory's
// records where they were read, equals one made with os.ReadDir and
// os.Lstat. The directory lists over many reads of Open's 8 KiB buffer
// (420 entries with names of 9 to 255 bytes) and holds every kind of name
// the scan tells apart: entries, a directory named like one, a symlink
// named like one (counted at its own size, not its target's), temp files,
// and 16 shards, each holding entries and a temp file. After Open the temps
// and shards are gone and the shards' entries sit at their addresses in the
// store directory, counted once: on a file system that lists names added
// during a listing, moving them while the directory is read counts them
// twice.
func TestScanMatchesReference(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, size int) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), bytes.Repeat([]byte{'e'}, size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	planted := 0
	for i := range 420 {
		n := 9 + i*37%247 // name lengths 9..255
		write(fmt.Sprintf("%04d", i)+strings.Repeat("n", n-8)+entryExt, i%97)
		planted++
	}
	if err := os.Mkdir(filepath.Join(dir, "x"+entryExt), 0o755); err != nil {
		t.Fatal(err)
	}
	write("target", 1<<16)
	if err := os.Symlink("target", filepath.Join(dir, strings.Repeat("5", 64)+entryExt)); err != nil {
		t.Fatal(err)
	}
	planted++
	for i := range 3 {
		write(fmt.Sprintf("%s%d", tempPrefix, i), 7)
	}
	var shards, migrated []string
	for i := range 16 {
		name := fmt.Sprintf("%x%x", i, 15-i)
		shard := filepath.Join(dir, name)
		if err := os.Mkdir(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		for j := range 4 {
			rest := fmt.Sprintf("%062x", j)
			write(filepath.Join(name, rest+entryExt), 100+j)
			migrated = append(migrated, name+rest+entryExt)
			planted++
		}
		write(filepath.Join(name, tempPrefix+"9"), 0)
		shards = append(shards, shard)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	list, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want Stats
	for _, d := range list {
		if strings.HasPrefix(d.Name(), tempPrefix) {
			t.Errorf("temp file %s survived Open", d.Name())
		}
		info, err := os.Lstat(filepath.Join(dir, d.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(d.Name(), entryExt) && !info.IsDir() {
			want.Entries++
			want.Bytes += info.Size()
		}
	}
	if want.Entries != int64(planted) {
		t.Fatalf("the reference counts %d entries, %d were planted", want.Entries, planted)
	}
	if got := s.Stats(); got != want {
		t.Errorf("Open counted %+v, the reference %+v", got, want)
	}
	for _, shard := range shards {
		if _, err := os.Stat(shard); !os.IsNotExist(err) {
			t.Errorf("shard %s survived Open (stat err %v)", shard, err)
		}
	}
	for _, name := range migrated {
		if _, err := os.Lstat(filepath.Join(dir, name)); err != nil {
			t.Errorf("the shard's entry is not at its address: %v", err)
		}
	}
}

// TestOpenCreatesAMissingDirectory: Open makes a missing store directory,
// parents included, and refuses a file in its place.
func TestOpenCreatesAMissingDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "v" {
		t.Errorf("Get = %q, %v in a created directory", got, ok)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file); err == nil {
		t.Error("Open of a regular file succeeded")
	}
}

package sim

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/network"
	"repro/internal/types"
)

// FuzzReadSnapshot: whatever bytes a frame is read from — through a
// *bytes.Reader, which reports its length, and through a reader that does
// not — ReadSnapshot does not panic, allocates in proportion to the bytes
// present and not to a length the frame claims, and either rejects them
// with ErrSnapshotCodec or returns a snapshot that re-encodes to exactly
// the frame it read. The payload is decoded before its checksum is
// checked, so every decoder behind it sees the corrupt payloads too.
//
// The same bytes are also loaded (Load) into a simulation another run left
// behind (usedSimulations), under a config the accepted snapshot fits: the
// load gives ReadSnapshot's verdict, an accepted frame re-encodes to the
// same bytes from the loaded simulation, and a simulation whose load
// failed, reset, runs a genesis cell exactly as a new one does. Seeded with
// the checked-in frames.
func FuzzReadSnapshot(f *testing.F) {
	for _, name := range []string{
		"snapshot-v7.frame", "snapshot-v7-held-traffic.frame",
		"snapshot-v6.frame", "snapshot-v6-held-traffic.frame",
		"snapshot-v5.frame", "snapshot-v5-held-traffic.frame",
		"snapshot-v4-pr18.frame", "snapshot-v4-held-traffic.frame",
		"snapshot-v3-pr16.frame", "snapshot-v2-pr13.frame",
	} {
		frame, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	genesis := snapshotCfg()
	fresh, err := New(genesis)
	if err != nil {
		f.Fatal(err)
	}
	wantRun := runRecorded(f, fresh, 1)
	wantEnd := encodeSnapshot(f, fresh.Snapshot())
	// The used simulations are restored from snapshots taken once, so that
	// an input costs a copy of one, not its run.
	used := make([]*Snapshot, len(usedSimulations))
	for i := range used {
		used[i] = usedSimulation(f, i).Snapshot()
	}
	sources := func(frame []byte) []io.Reader {
		return []io.Reader{bytes.NewReader(frame), io.MultiReader(bytes.NewReader(frame))}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for k, src := range sources(frame) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sn, err := ReadSnapshot(src)
			runtime.ReadMemStats(&m1)
			if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 32*uint64(len(frame))+1<<20 {
				t.Fatalf("reading a %d-byte frame from a %T allocated %d bytes", len(frame), src, grew)
			}
			var out bytes.Buffer
			if err != nil {
				if sn != nil || !errors.Is(err, ErrSnapshotCodec) {
					t.Fatalf("rejected with %v (snapshot %v), want nil and ErrSnapshotCodec", err, sn != nil)
				}
			} else {
				if _, err := sn.WriteTo(&out); err != nil {
					t.Fatalf("accepted frame does not re-encode: %v", err)
				}
				if out.Len() > len(frame) || !bytes.Equal(out.Bytes(), frame[:out.Len()]) {
					t.Fatalf("accepted %d bytes that re-encode differently (%d bytes)", len(frame), out.Len())
				}
			}

			cfg := genesis
			if err == nil {
				if views := len(sn.nodes); views == 0 || views > sn.validators {
					continue // no config has that layout, and the simulator never writes one
				}
				if sn.adversary != "" {
					continue // fittingCfg has no adversary to take the state
				}
				// The frame's own heal slot, so that Load retargets no held
				// message and the bytes stay the frame's.
				gst := sort.Search(int(network.Never), func(at int) bool { return sn.net.Healed(types.Slot(at)) })
				cfg = fittingCfg(sn.validators, len(sn.nodes), types.Slot(gst))
			}
			i := (len(frame) + k) % len(used)
			s, buildErr := NewShell(usedSimulations[i].cfg)
			if buildErr == nil {
				buildErr = s.Restore(used[i])
			}
			if buildErr != nil {
				t.Fatal(buildErr)
			}
			loadErr := s.Load(cfg, sources(frame)[k])
			switch {
			case (loadErr == nil) != (err == nil):
				t.Fatalf("Load's verdict %v differs from ReadSnapshot's %v", loadErr, err)
			case loadErr != nil && !errors.Is(loadErr, ErrSnapshotCodec):
				t.Fatalf("Load rejected with %v, want ErrSnapshotCodec", loadErr)
			case loadErr == nil:
				if got := encodeSnapshot(t, s.Snapshot()); !bytes.Equal(got, out.Bytes()) {
					t.Fatalf("the loaded frame re-encodes differently (%d vs %d bytes)", len(got), out.Len())
				}
			default:
				if err := s.Reset(genesis); err != nil {
					t.Fatal(err)
				}
				if got := runRecorded(t, s, 1); !reflect.DeepEqual(got, wantRun) {
					t.Fatalf("a simulation whose load failed runs genesis differently:\n  reset: %+v\n  new:   %+v", got, wantRun)
				}
				if got := encodeSnapshot(t, s.Snapshot()); !bytes.Equal(got, wantEnd) {
					t.Fatal("a simulation whose load failed ends a genesis run in another state than a new one")
				}
			}
		}
	})
}

// fittingCfg is a config whose simulation holds views views of validators
// validators, one honest partition per view but the last, which takes the
// rest: the layout a frame of that many views and validators fits.
func fittingCfg(validators, views int, gst types.Slot) Config {
	return Config{
		Validators: validators, Spec: types.CompressedSpec(1 << 16), GST: gst, Delay: 1,
		PartitionOf: func(v types.ValidatorIndex) int { return min(int(v), views-1) },
	}
}

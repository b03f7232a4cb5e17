package sim

import (
	"bytes"
	"errors"
	"io"
	"os"
	"runtime"
	"testing"
)

// FuzzReadSnapshot: whatever bytes a frame is read from — through a
// *bytes.Reader, which reports its length, and through a reader that does
// not — ReadSnapshot does not panic, allocates in proportion to the bytes
// present and not to a length the frame claims, and either rejects them
// with ErrSnapshotCodec or returns a snapshot that re-encodes to exactly
// the frame it read. The payload is decoded before its checksum is
// checked, so every decoder behind it sees the corrupt payloads too.
// Seeded with the checked-in frames.
func FuzzReadSnapshot(f *testing.F) {
	for _, name := range []string{
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
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, src := range []io.Reader{bytes.NewReader(frame), io.MultiReader(bytes.NewReader(frame))} {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sn, err := ReadSnapshot(src)
			runtime.ReadMemStats(&m1)
			if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 32*uint64(len(frame))+1<<20 {
				t.Fatalf("reading a %d-byte frame from a %T allocated %d bytes", len(frame), src, grew)
			}
			if err != nil {
				if sn != nil || !errors.Is(err, ErrSnapshotCodec) {
					t.Fatalf("rejected with %v (snapshot %v), want nil and ErrSnapshotCodec", err, sn != nil)
				}
				continue
			}
			var out bytes.Buffer
			if _, err := sn.WriteTo(&out); err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			if out.Len() > len(frame) || !bytes.Equal(out.Bytes(), frame[:out.Len()]) {
				t.Fatalf("accepted %d bytes that re-encode differently (%d bytes)", len(frame), out.Len())
			}
		}
	})
}

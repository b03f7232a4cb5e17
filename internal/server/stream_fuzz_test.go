package server

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
)

// streamUnit is the unit every worker-stream test reads an answer to: three
// cells, two scenarios.
var streamUnit = []engine.Cell{{Scenario: "sim/gst"}, {Scenario: "sim/gst"}, {Scenario: "sim/leak"}}

// checkWorkerStream runs readUnitStream over the bytes as a worker's answer
// to streamUnit and asserts what must hold of any bytes at all: no panic, a
// delivery only for a position of the unit under the scenario sent there and
// never twice, allocation in proportion to the input, and either every cell
// delivered and no error, or an error beside exactly the positions that were
// not delivered. It returns the positions delivered, in arrival order.
//
// The allocation bound is 64 x input + 1 MiB where the binary decoders'
// targets assert 32 x: a line is decoded by encoding/json, whose
// quarter-step slice growth spends 47 bytes per byte of a line of empty
// metric objects (measured; 24-byte elements from 3-byte "{},"), and the
// scanner's doubling buffer another 2.
func checkWorkerStream(t *testing.T, stream []byte) (arrived []int, err error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	delivered := make([]int, len(streamUnit))
	missing, err := readUnitStream(bytes.NewReader(stream), streamUnit, func(pos int, res engine.Result) {
		if pos < 0 || pos >= len(streamUnit) {
			t.Fatalf("delivered position %d of a %d-cell unit", pos, len(streamUnit))
		}
		if res.Scenario != streamUnit[pos].Scenario {
			t.Fatalf("position %d delivered as %q, sent as %q", pos, res.Scenario, streamUnit[pos].Scenario)
		}
		delivered[pos]++
		arrived = append(arrived, pos)
	})
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(stream))+1<<20 {
		t.Fatalf("reading %d bytes allocated %d", len(stream), grew)
	}
	var undelivered []int
	for pos, n := range delivered {
		if n > 1 {
			t.Fatalf("position %d delivered %d times", pos, n)
		}
		if n == 0 {
			undelivered = append(undelivered, pos)
		}
	}
	if err == nil && len(undelivered) > 0 {
		t.Fatalf("accepted a stream that never delivered %v", undelivered)
	}
	if !reflect.DeepEqual(missing, undelivered) {
		t.Fatalf("reported %v missing beside %v, delivered all but %v", missing, err, undelivered)
	}
	return arrived, err
}

// FuzzWorkerStream: whatever bytes a worker streams back — the coordinator's
// reader is a trust boundary — checkWorkerStream's properties hold. The
// checked-in corpus (testdata/fuzz/FuzzWorkerStream) is the catalogue
// TestWorkerStreamCorpus names case by case.
func FuzzWorkerStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		checkWorkerStream(t, stream) //nolint:errcheck // the properties are asserted inside
	})
}

// corpusStream reads one checked-in seed of FuzzWorkerStream.
func corpusStream(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzWorkerStream", name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, isBytes := strings.CutPrefix(lit, "[]byte(")
	if !ok || !isBytes || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s is not a one-value []byte corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// TestWorkerStreamCorpus pins what the reader makes of each seed: which
// cells it delivers before it stops, and whether it condemns the stream.
func TestWorkerStreamCorpus(t *testing.T) {
	for _, tc := range []struct {
		name      string
		arrived   []int
		condemned bool
	}{
		{"complete", []int{1, 0, 2}, false},
		{"complete-no-final-newline", []int{0, 1, 2}, false},
		{"half-line-then-eof", []int{0}, true},
		{"truncated-json", nil, true},
		{"blank-line", []int{0}, true},
		{"index-out-of-range", []int{0}, true},
		{"index-negative", nil, true},
		{"duplicate-index", []int{0}, true},
		{"wrong-scenario", []int{1}, true},
		{"ends-short", []int{2, 0}, true},
		{"surplus-line", []int{0, 1, 2}, true},
	} {
		arrived, err := checkWorkerStream(t, corpusStream(t, tc.name))
		if !reflect.DeepEqual(arrived, tc.arrived) || (err != nil) != tc.condemned {
			t.Errorf("%s: delivered %v, err %v; want %v, condemned %t", tc.name, arrived, err, tc.arrived, tc.condemned)
		}
	}

	// The one case too large to check in: a line over maxStreamLine is
	// refused at the limit, whatever it would have decoded to, and what
	// arrived before it stands.
	first := `{"index":0,"result":{"scenario":"sim/gst"}}` + "\n"
	long := first + `{"index":1,"result":{"scenario":"sim/gst","outcome":"` + strings.Repeat("x", maxStreamLine) + `"}}` + "\n"
	arrived, err := checkWorkerStream(t, []byte(long))
	if !reflect.DeepEqual(arrived, []int{0}) || !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("line over %d bytes: delivered %v, err %v; want [0] and bufio.ErrTooLong", maxStreamLine, arrived, err)
	}
}

package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/attestation"
	"repro/internal/beacon"
	"repro/internal/blocktree"
	"repro/internal/codec"
	"repro/internal/ffg"
	"repro/internal/forkchoice"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestHostileCountsAllocateNothing: every decoder that sizes a slice or map
// by a length prefix refuses a prefix naming more elements than its input
// has bytes left, before it allocates for them. Each frame below is valid
// up to one such prefix, which claims 2^20 elements with nothing after it;
// each must be rejected with codec.ErrCorrupt or sim.ErrSnapshotCodec and
// allocate under 1 MiB while being read.
func TestHostileCountsAllocateNothing(t *testing.T) {
	const hostile = 1 << 20
	for _, tc := range countSites(t, count(hostile)) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.frame)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, codec.ErrCorrupt) && !errors.Is(err, sim.ErrSnapshotCodec) {
			t.Errorf("%s: a %d-byte frame counting %d elements is read with error %v, want codec.ErrCorrupt or sim.ErrSnapshotCodec",
				tc.site, len(tc.frame), hostile, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: reading a %d-byte frame allocated %d bytes", tc.site, len(tc.frame), grew)
		}
	}
}

// TestHeavyCountsAllocateInProportion: a count the bytes left can hold —
// 2^16 elements, with 2^16 zero bytes after it — names elements that
// encode larger than a byte, and a decoder that sized its slice or map by
// it up front would allocate for elements the input cannot hold. Each
// decoder grows as its elements actually arrive, or refuses a count of
// elements the bytes left cannot hold (codec.Coder.Count), so whether it
// accepts the zeros or not, it allocates in proportion to the frame, as
// FuzzReadSnapshot holds it: under 32 bytes per frame byte plus 1 MiB.
func TestHeavyCountsAllocateInProportion(t *testing.T) {
	const heavy = 1 << 16
	for _, tc := range countSites(t, append(count(heavy), make([]byte, heavy)...)) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.decode(tc.frame)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32*uint64(len(tc.frame))+1<<20 {
			t.Errorf("%s: reading a %d-byte frame allocated %d bytes", tc.site, len(tc.frame), grew)
		}
	}
}

func count(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }

func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// countSite is a frame that is valid up to a count, which tail supplies,
// and the decoder that reads it.
type countSite struct {
	site   string
	frame  []byte
	decode func([]byte) error
}

// countSites builds, for every decoder that sizes a slice or map by a
// count, a frame valid up to that count, ending in tail.
func countSites(t *testing.T, tail []byte) []countSite {
	encode := func(walk func(c *codec.Coder)) []byte {
		var b bytes.Buffer
		c := codec.NewEncoder(&b)
		if walk(c); c.Err() != nil {
			t.Fatal(c.Err())
		}
		return b.Bytes()
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	// Coder-level decoders: walk fills a new value; a rejection must leave
	// codec.ErrCorrupt on the coder.
	read := func(walk func(c *codec.Coder)) func([]byte) error {
		return func(b []byte) error {
			c := codec.NewDecoder(bytes.NewReader(b))
			walk(c)
			return c.Err()
		}
	}
	readNetwork := read(func(c *codec.Coder) {
		new(network.Network[uint64]).Walk(c, 8, func(m *uint64, c *codec.Coder) { c.U64(m) })
	})
	netHeader := cat(
		u64(2),    // nodes
		u64(1<<8), // GST
		u64(1),    // delay
		u64(0),    // drop rate
		u64(2),    // retry delay
		u64(7),    // seed
	)
	netCounters := cat(count(0), u64(0), u64(0))

	// A node at genesis ends in its registry (4 + 25 bytes a validator),
	// no pending blocks and the next incentives epoch.
	const validators = 4
	node := encode(beacon.NewNodeWithForkChoice(validators, types.CompressedSpec(1<<16), types.RootFromUint64(0), new(forkchoice.ProtoArray)).Walk)
	registryAt, pendingAt := len(node)-12-(4+25*validators), len(node)-12
	for _, at := range []struct {
		pos  int
		want uint32
	}{{registryAt, validators}, {pendingAt, 0}} {
		if got := binary.LittleEndian.Uint32(node[at.pos:]); got != at.want {
			t.Fatalf("node frame layout moved: count at %d reads %d, want %d", at.pos, got, at.want)
		}
	}
	readNode := read(func(c *codec.Coder) { new(beacon.Node).Walk(c) })
	if err := readNode(node); err != nil {
		t.Fatalf("the unmodified node frame is rejected: %v", err)
	}

	// Snapshot frames: this build's magic and version, then a payload with a
	// correct checksum.
	s, err := sim.New(sim.Config{Validators: validators, Spec: types.CompressedSpec(1 << 16), Delay: 1})
	if err != nil {
		t.Fatal(err)
	}
	var real bytes.Buffer
	if _, err := s.Snapshot().WriteTo(&real); err != nil {
		t.Fatal(err)
	}
	snapshot := func(payload []byte) []byte {
		sum := fnv.New64a()
		sum.Write(payload)
		return cat(real.Bytes()[:8], count(uint32(len(payload))), binary.LittleEndian.AppendUint64(nil, sum.Sum64()), payload)
	}
	readSnapshot := func(b []byte) error {
		_, err := sim.ReadSnapshot(bytes.NewReader(b))
		return err
	}
	snapHead := cat(u64(validators), u64(0))
	empty := count(0)
	genesisTree := new(blocktree.Tree)
	genesisTree.Reset(types.RootFromUint64(0))
	slotInFlight := cat(
		encode(genesisTree.Walk),
		netHeader,
		netCounters,
		count(1), // one inbox
		count(1), // one slot in it
		u64(3),   // the slot
	)
	batchInFlight := cat(slotInFlight, count(1), []byte{3}, encode(new(attestation.Data).Walk)) // one attestation batch

	return []countSite{
		{"codec.Coder.String", tail, read(func(c *codec.Coder) { var s string; c.String(&s) })},
		{"forkchoice.WalkEngine validators", cat([]byte{1}, tail),
			read(func(c *codec.Coder) { var e forkchoice.Engine; forkchoice.WalkEngine(c, &e) })},
		{"ffg.Engine.Walk justified", tail, read(new(ffg.Engine).Walk)},
		{"network partitions", cat(netHeader, tail), readNetwork},
		{"network inboxes", cat(netHeader, netCounters, tail), readNetwork},
		{"network inbox slots", cat(netHeader, netCounters, count(1), tail), readNetwork},
		{"network slot messages", cat(netHeader, netCounters, count(1), count(1), u64(3), tail), readNetwork},
		{"beacon registry", cat(node[:registryAt], tail), readNode},
		{"beacon pending parents", cat(node[:pendingAt], tail), readNode},
		{"beacon pending blocks", cat(node[:pendingAt], count(1), make([]byte, 32), tail), readNode},
		{"sim snapshot payload length", cat(real.Bytes()[:8], count(1<<30), make([]byte, 8)), readSnapshot},
		{"sim snapshot nodes", snapshot(cat(snapHead, tail)), readSnapshot},
		{"sim snapshot duty views", snapshot(cat(snapHead, empty, tail)), readSnapshot},
		{"sim snapshot embargoes", snapshot(cat(snapHead, empty, empty, tail)), readSnapshot},
		{"sim slot messages", snapshot(cat(snapHead, empty, empty, empty, slotInFlight, tail)), readSnapshot},
		{"sim batch validators", snapshot(cat(snapHead, empty, empty, empty, batchInFlight, tail)), readSnapshot},
		{"sim snapshot adversary state", snapshot(cat(snapHead, empty, empty, empty, encode(genesisTree.Walk), netHeader, netCounters, empty, tail)), readSnapshot},
		{"engine leakTrace curve", tail, read(new(leakTrace).walk)},
	}
}

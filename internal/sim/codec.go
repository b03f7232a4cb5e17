package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/beacon"
	"repro/internal/blocktree"
	"repro/internal/codec"
	"repro/internal/network"
	"repro/internal/types"
)

// Durable snapshot framing: a magic, a format version, a payload length,
// and an FNV-64a checksum over the payload. The container makes torn or
// bit-flipped files detectable before any field is trusted; the format
// version makes a snapshot written by a different codec revision
// detectable (a version-skew read fails like corruption — callers treat
// both as "no checkpoint" and run cold). Version 2 stored each distinct
// vote once, with columns of ids, where version 1 repeated the vote per
// validator; version 3 drops the slashing detector's copy of the votes —
// it reads the pool's — and writes a registry status as one byte; version 4
// drops each node's second registry (the justified-state balances, which
// the fork-choice engine's own stake column already holds); version 5 drops
// each node's validator id and its slashing-evidence history, which no
// code read (the detector's marks say who was caught); version 6 drops each
// node's second copy of the spec, the incentive engine's, which a decode
// builds from the node's own; version 7 ends with the adversary's state, a
// count of zero bytes for an adversary that does not walk; version 8 holds
// no Byzantine view — a Byzantine validator's duty view is the one past the
// views — and drops the network's bridging column and each node's
// slashing-enforcement flag.
const (
	snapshotMagic   = "GLSN"
	snapshotVersion = uint32(8)
	// snapshotMaxBytes bounds the declared payload length, so a corrupt
	// header cannot drive an arbitrary allocation (a full-spec
	// 10k-validator snapshot is a few MiB; 1 GiB is far past any real
	// grid's cell).
	snapshotMaxBytes = 1 << 30
)

// ErrSnapshotCodec wraps every decode failure of ReadSnapshot: torn
// files, checksum mismatches, version skew, and structurally impossible
// payloads all surface as this one error class, which the checkpoint
// layer maps to a silent miss.
var ErrSnapshotCodec = fmt.Errorf("sim: snapshot codec")

// messageBytes is the fewest bytes a message encodes as: a block's.
const messageBytes = 1 + blocktree.BlockBytes

// walk moves a message under its kind's tag. A batch that omits a listed
// validator is written like a batch that never listed it, so a decoded
// batch lists exactly the validators it casts for. A message is decoded
// from zero, so a batch never decodes into a list it held before: a sent
// list is immutable.
func (m *Message) walk(c *codec.Coder) {
	if !c.Encoding() {
		*m = Message{}
	}
	c.Byte((*byte)(&m.Kind))
	switch m.Kind {
	case BlockMessage:
		m.Block.Walk(c)
	case AttestationMessage:
		if !c.Encoding() {
			m.Batch.Validators = make([]types.ValidatorIndex, 1)
		}
		c.U64((*uint64)(&m.Batch.Validators[0]))
		m.Batch.Data.Walk(c)
	case BatchMessage:
		m.Batch.Data.Walk(c)
		if skip := int(m.omit) - 1; c.Encoding() && skip >= 0 {
			vs, n := m.Batch.Validators, len(m.Batch.Validators)-1
			c.Count(&n, 8)
			for k := range vs {
				if k != skip {
					c.U64((*uint64)(&vs[k]))
				}
			}
			return
		}
		codec.Slice(c, &m.Batch.Validators, 8, func(v *types.ValidatorIndex, c *codec.Coder) { c.U64((*uint64)(v)) })
	default:
		c.Corrupt("sim: unknown message tag %d", m.Kind)
	}
}

// WriteTo serializes the snapshot — every cohort view, the duty-view
// assignments, live embargoes, the safety-audit oracle, all held network
// traffic and the adversary's state — as one versioned, checksummed binary
// blob. A ReadSnapshot of the bytes restores bit-identically: continuing a
// decoded snapshot produces the same results (same conflict epoch) as
// continuing the in-memory original. Implements io.WriterTo.
//
// The payload is encoded twice and kept nowhere: a first pass into the
// checksum takes its length and sum for the header, a second writes it
// straight to dst, which is grown to the frame first when it can be.
func (sn *Snapshot) WriteTo(dst io.Writer) (int64, error) {
	if sn.nodes == nil {
		return 0, errAdopted
	}
	sum := fnv.New64a()
	c := codec.NewEncoder(sum)
	sn.walk(c)
	if err := c.Err(); err != nil {
		return 0, fmt.Errorf("%w: encode: %v", ErrSnapshotCodec, err)
	}
	var header [20]byte
	copy(header[:4], snapshotMagic)
	binary.LittleEndian.PutUint32(header[4:8], snapshotVersion)
	binary.LittleEndian.PutUint32(header[8:12], uint32(c.Written()))
	binary.LittleEndian.PutUint64(header[12:20], sum.Sum64())
	if g, ok := dst.(interface{ Grow(int) }); ok {
		g.Grow(len(header) + int(c.Written()))
	}
	c = codec.NewEncoder(dst)
	c.Raw(header[:])
	sn.walk(c)
	return c.Written(), c.Err()
}

// walk moves the snapshot's payload. Decoding fills the storage the
// snapshot holds — its nodes, oracle, network and columns, each emptied by
// its own walk — and new nodes for what it lacks. A payload whose duty
// views do not fit it — not one per validator, or one naming a view the
// snapshot does not hold — is corrupt: restored, it would index past the
// simulation's views. The view one past them is a Byzantine validator's,
// which holds none; fit refuses it for an honest one.
func (sn *Snapshot) walk(c *codec.Coder) {
	c.Int(&sn.validators)
	c.U64((*uint64)(&sn.slot))
	codec.Slice(c, &sn.nodes, 1, func(n **beacon.Node, c *codec.Coder) {
		if *n == nil {
			*n = new(beacon.Node)
		}
		(*n).Walk(c)
	})
	codec.Slice(c, &sn.dutyView, 8, func(v *int, c *codec.Coder) { c.Int(v) })
	codec.Slice(c, &sn.embargoes, 8+8+32+8, func(e *embargo, c *codec.Coder) {
		c.Int(&e.cohort)
		c.U64((*uint64)(&e.producer))
		c.Raw(e.root[:])
		c.U64((*uint64)(&e.until))
	})
	sn.oracle.Walk(c)
	sn.net.Walk(c, messageBytes, (*Message).walk)
	c.String(&sn.adversary)
	if c.Encoding() || c.Err() != nil {
		return
	}
	if len(sn.dutyView) != sn.validators {
		c.Corrupt("sim: %d duty views for %d validators", len(sn.dutyView), sn.validators)
	}
	for v, view := range sn.dutyView {
		if view < 0 || view > len(sn.nodes) {
			c.Corrupt("sim: validator %d acts from view %d of %d", v, view, len(sn.nodes))
			return
		}
	}
	sn.bytes = snapshotBytes(sn)
}

// frame is a payload as ReadSnapshot decodes it: the source cut at the
// declared length and teed into the checksum. Its Len is what is left of
// the declared length, which the source has been checked to hold, so the
// codec bounds every length prefix by the bytes actually present.
type frame struct {
	io.Reader
	rest *io.LimitedReader
}

func (f frame) Len() int { return int(f.rest.N) }

// ReadSnapshot decodes a snapshot serialized by WriteTo. Any damage —
// a torn or truncated file, a flipped bit, a snapshot written by a
// different codec version, a structurally impossible payload — returns
// an error wrapping ErrSnapshotCodec; no partially-decoded snapshot ever
// escapes. The decoded snapshot is a full deep state: Restore and Adopt
// accept it exactly like an in-memory one.
func ReadSnapshot(src io.Reader) (*Snapshot, error) {
	sn := &Snapshot{oracle: new(blocktree.Tree), net: new(network.Network[Message])}
	if err := sn.read(src); err != nil {
		return nil, err
	}
	return sn, nil
}

// read decodes a frame WriteTo wrote into sn, in the storage sn holds (see
// walk; it holds an oracle tree and a network), and returns an error
// wrapping ErrSnapshotCodec on any damage; sn is then partly decoded, fit
// only to be decoded into again.
//
// The payload is decoded as it is read, with no copy of it: the checksum
// verdict comes once the decoders have consumed the declared length. A
// source that cannot report its length is first read into memory, grown
// only as its bytes arrive.
func (sn *Snapshot) read(src io.Reader) error {
	var header [20]byte
	if _, err := io.ReadFull(src, header[:]); err != nil {
		return fmt.Errorf("%w: header: %v", ErrSnapshotCodec, err)
	}
	if string(header[:4]) != snapshotMagic {
		return fmt.Errorf("%w: bad magic", ErrSnapshotCodec)
	}
	if v := binary.LittleEndian.Uint32(header[4:8]); v != snapshotVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrSnapshotCodec, v, snapshotVersion)
	}
	size := binary.LittleEndian.Uint32(header[8:12])
	if size > snapshotMaxBytes {
		return fmt.Errorf("%w: payload length %d exceeds limit", ErrSnapshotCodec, size)
	}
	left, ok := src.(interface{ Len() int })
	if !ok {
		// A read error leaves the copy short, and it is refused below.
		payload, _ := io.ReadAll(io.LimitReader(src, int64(size)))
		r := bytes.NewReader(payload)
		src, left = r, r
	}
	if int64(size) > int64(left.Len()) {
		return fmt.Errorf("%w: payload length %d exceeds the %d bytes left", ErrSnapshotCodec, size, left.Len())
	}
	rest, sum := &io.LimitedReader{R: src, N: int64(size)}, fnv.New64a()
	c := codec.NewDecoder(frame{io.TeeReader(rest, sum), rest})
	switch sn.walk(c); {
	case c.Err() != nil:
		return fmt.Errorf("%w: %v", ErrSnapshotCodec, c.Err())
	case rest.N > 0:
		return fmt.Errorf("%w: %d payload bytes past the snapshot", ErrSnapshotCodec, rest.N)
	case sum.Sum64() != binary.LittleEndian.Uint64(header[12:20]):
		return fmt.Errorf("%w: checksum mismatch", ErrSnapshotCodec)
	}
	return nil
}

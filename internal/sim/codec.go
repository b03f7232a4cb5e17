package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/attestation"
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
// the fork-choice engine's own stake column already holds).
const (
	snapshotMagic   = "GLSN"
	snapshotVersion = uint32(4)
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

// encodeMessage writes a message under its kind's tag. A batch is written
// with the validators it casts for, so one that omits a listed validator
// is written like a batch that never listed it.
func encodeMessage(w *codec.Writer, m Message) {
	w.Byte(byte(m.Kind))
	switch m.Kind {
	case BlockMessage:
		w.U64(uint64(m.Block.Slot))
		w.Raw(m.Block.Root[:])
		w.Raw(m.Block.Parent[:])
		w.U64(uint64(m.Block.Proposer))
	case AttestationMessage:
		w.U64(uint64(m.Batch.Validators[0]))
		attestation.EncodeData(w, m.Batch.Data)
	case BatchMessage:
		attestation.EncodeData(w, m.Batch.Data)
		vs, skip := m.Batch.Validators, int(m.omit)-1
		if skip >= 0 {
			w.Len(len(vs) - 1)
		} else {
			w.Len(len(vs))
		}
		for k, v := range vs {
			if k != skip {
				w.U64(uint64(v))
			}
		}
	}
}

func decodeMessage(r *codec.Reader) Message {
	m := Message{Kind: MessageKind(r.Byte())}
	switch m.Kind {
	case BlockMessage:
		m.Block.Slot = types.Slot(r.U64())
		r.Raw(m.Block.Root[:])
		r.Raw(m.Block.Parent[:])
		m.Block.Proposer = types.ValidatorIndex(r.U64())
	case AttestationMessage:
		m.Batch.Validators = []types.ValidatorIndex{types.ValidatorIndex(r.U64())}
		m.Batch.Data = attestation.DecodeData(r)
	case BatchMessage:
		m.Batch.Data = attestation.DecodeData(r)
		m.Batch.Validators = make([]types.ValidatorIndex, r.Len())
		for i := range m.Batch.Validators {
			m.Batch.Validators[i] = types.ValidatorIndex(r.U64())
		}
	default:
		r.Corrupt("sim: unknown message tag %d", m.Kind)
		return Message{}
	}
	return m
}

// WriteTo serializes the snapshot — every cohort view, the duty-view
// assignments, live embargoes, the safety-audit oracle, and all held
// network traffic — as one versioned, checksummed binary blob. A
// ReadSnapshot of the bytes restores bit-identically: continuing a
// decoded snapshot produces the same results (same conflict epoch) as
// continuing the in-memory original. Implements io.WriterTo.
//
// The payload is encoded twice and kept nowhere: a first pass into the
// checksum takes its length and sum for the header, a second writes it
// straight to dst, which is grown to the frame first when it can be.
func (sn *Snapshot) WriteTo(dst io.Writer) (int64, error) {
	if sn.nodes == nil {
		return 0, fmt.Errorf("%w: snapshot already adopted", ErrBadConfig)
	}
	sum := fnv.New64a()
	w := codec.NewWriter(sum)
	sn.encodePayload(w)
	if err := w.Err(); err != nil {
		return 0, fmt.Errorf("%w: encode: %v", ErrSnapshotCodec, err)
	}
	var header [20]byte
	copy(header[:4], snapshotMagic)
	binary.LittleEndian.PutUint32(header[4:8], snapshotVersion)
	binary.LittleEndian.PutUint32(header[8:12], uint32(w.Written()))
	binary.LittleEndian.PutUint64(header[12:20], sum.Sum64())
	if g, ok := dst.(interface{ Grow(int) }); ok {
		g.Grow(len(header) + int(w.Written()))
	}
	w = codec.NewWriter(dst)
	w.Raw(header[:])
	sn.encodePayload(w)
	return w.Written(), w.Err()
}

func (sn *Snapshot) encodePayload(w *codec.Writer) {
	w.Int(sn.validators)
	w.U64(uint64(sn.slot))
	w.Len(len(sn.nodes))
	for _, n := range sn.nodes {
		n.EncodeTo(w)
	}
	w.Len(len(sn.dutyView))
	for _, v := range sn.dutyView {
		w.Int(v)
	}
	w.Len(len(sn.embargoes))
	for _, e := range sn.embargoes {
		w.Int(e.cohort)
		w.U64(uint64(e.producer))
		w.Raw(e.root[:])
		w.U64(uint64(e.until))
	}
	sn.oracle.EncodeTo(w)
	sn.net.EncodeTo(w, encodeMessage)
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
//
// The payload is decoded as it is read, with no copy of it: the checksum
// verdict comes once the decoders have consumed the declared length, and
// before the snapshot is returned. A source that cannot report its length
// is first read into memory, grown only as its bytes arrive.
func ReadSnapshot(src io.Reader) (*Snapshot, error) {
	var header [20]byte
	if _, err := io.ReadFull(src, header[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrSnapshotCodec, err)
	}
	if string(header[:4]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCodec)
	}
	if v := binary.LittleEndian.Uint32(header[4:8]); v != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrSnapshotCodec, v, snapshotVersion)
	}
	size := binary.LittleEndian.Uint32(header[8:12])
	if size > snapshotMaxBytes {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrSnapshotCodec, size)
	}
	left, ok := src.(interface{ Len() int })
	if !ok {
		// A read error leaves the copy short, and it is refused below.
		payload, _ := io.ReadAll(io.LimitReader(src, int64(size)))
		r := bytes.NewReader(payload)
		src, left = r, r
	}
	if int64(size) > int64(left.Len()) {
		return nil, fmt.Errorf("%w: payload length %d exceeds the %d bytes left", ErrSnapshotCodec, size, left.Len())
	}
	rest, sum := &io.LimitedReader{R: src, N: int64(size)}, fnv.New64a()
	sn, err := decodePayload(codec.NewReader(frame{io.TeeReader(rest, sum), rest}))
	switch {
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCodec, err)
	case rest.N > 0:
		return nil, fmt.Errorf("%w: %d payload bytes past the snapshot", ErrSnapshotCodec, rest.N)
	case sum.Sum64() != binary.LittleEndian.Uint64(header[12:20]):
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCodec)
	}
	sn.bytes = snapshotBytes(sn)
	return sn, nil
}

// decodePayload decodes the fields encodePayload writes. A decoder that
// fails leaves the reader's sticky error behind its nil and every read
// after it is a no-op, so the one verdict is the error at the end; a loop
// over a count stops at the first error, so it allocates nothing for
// elements that did not arrive.
func decodePayload(r *codec.Reader) (*Snapshot, error) {
	sn := &Snapshot{}
	sn.validators = r.Int()
	sn.slot = types.Slot(r.U64())
	sn.nodes = make([]*beacon.Node, r.Len())
	for i := 0; i < len(sn.nodes) && r.Err() == nil; i++ {
		sn.nodes[i] = beacon.DecodeNode(r)
	}
	sn.dutyView = make([]int, r.Len())
	for i := range sn.dutyView {
		sn.dutyView[i] = r.Int()
	}
	ne := r.Len()
	sn.embargoes = make([]embargo, 0, min(ne, 64))
	for i := 0; i < ne && r.Err() == nil; i++ {
		e := embargo{cohort: r.Int(), producer: types.ValidatorIndex(r.U64())}
		r.Raw(e.root[:])
		e.until = types.Slot(r.U64())
		sn.embargoes = append(sn.embargoes, e)
	}
	sn.oracle = blocktree.DecodeTree(r)
	sn.net = network.DecodeNetwork(r, decodeMessage)
	return sn, r.Err()
}

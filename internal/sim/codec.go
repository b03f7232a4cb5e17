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
		nv := r.Len()
		if r.Err() != nil {
			return Message{}
		}
		m.Batch.Validators = make([]types.ValidatorIndex, nv)
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
func (sn *Snapshot) WriteTo(dst io.Writer) (int64, error) {
	if sn.nodes == nil {
		return 0, fmt.Errorf("%w: snapshot already adopted", ErrBadConfig)
	}
	var payload bytes.Buffer
	w := codec.NewWriter(&payload)
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
	if err := w.Err(); err != nil {
		return 0, fmt.Errorf("%w: encode: %v", ErrSnapshotCodec, err)
	}

	sum := fnv.New64a()
	sum.Write(payload.Bytes())
	var header [20]byte
	copy(header[:4], snapshotMagic)
	binary.LittleEndian.PutUint32(header[4:8], snapshotVersion)
	binary.LittleEndian.PutUint32(header[8:12], uint32(payload.Len()))
	binary.LittleEndian.PutUint64(header[12:20], sum.Sum64())
	if _, err := dst.Write(header[:]); err != nil {
		return 0, err
	}
	n, err := dst.Write(payload.Bytes())
	return int64(len(header) + n), err
}

// ReadSnapshot decodes a snapshot serialized by WriteTo. Any damage —
// a torn or truncated file, a flipped bit, a snapshot written by a
// different codec version, a structurally impossible payload — returns
// an error wrapping ErrSnapshotCodec; no partially-decoded snapshot ever
// escapes. The decoded snapshot is a full deep state: Restore and Adopt
// accept it exactly like an in-memory one.
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
	if left, ok := src.(interface{ Len() int }); ok && int64(size) > int64(left.Len()) {
		return nil, fmt.Errorf("%w: payload length %d exceeds the %d bytes left", ErrSnapshotCodec, size, left.Len())
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(src, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrSnapshotCodec, err)
	}
	sum := fnv.New64a()
	sum.Write(payload)
	if sum.Sum64() != binary.LittleEndian.Uint64(header[12:20]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCodec)
	}

	r := codec.NewReader(bytes.NewReader(payload))
	sn := &Snapshot{}
	sn.validators = r.Int()
	sn.slot = types.Slot(r.U64())
	nn := r.Len()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCodec, err)
	}
	sn.nodes = make([]*beacon.Node, nn)
	for i := 0; i < nn; i++ {
		sn.nodes[i] = beacon.DecodeNode(r)
		if sn.nodes[i] == nil {
			return nil, fmt.Errorf("%w: node %d: %v", ErrSnapshotCodec, i, r.Err())
		}
	}
	nd := r.Len()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCodec, err)
	}
	sn.dutyView = make([]int, nd)
	for i := 0; i < nd; i++ {
		sn.dutyView[i] = r.Int()
	}
	ne := r.Len()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCodec, err)
	}
	sn.embargoes = make([]embargo, ne)
	for i := range sn.embargoes {
		e := &sn.embargoes[i]
		e.cohort = r.Int()
		e.producer = types.ValidatorIndex(r.U64())
		r.Raw(e.root[:])
		e.until = types.Slot(r.U64())
	}
	sn.oracle = blocktree.DecodeTree(r)
	if sn.oracle == nil {
		return nil, fmt.Errorf("%w: oracle: %v", ErrSnapshotCodec, r.Err())
	}
	sn.net = network.DecodeNetwork(r, decodeMessage)
	if sn.net == nil {
		return nil, fmt.Errorf("%w: network: %v", ErrSnapshotCodec, r.Err())
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCodec, err)
	}
	sn.bytes = snapshotBytes(sn)
	return sn, nil
}

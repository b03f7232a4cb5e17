package engine

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/sim"
)

// prefixCodecVersion stamps the engine-level checkpoint blob (scenario
// identity, trace, prefix position) ahead of the snapshot's own versioned
// frame. Bump it whenever the blob's layout changes; a skewed blob decodes
// as an error, which the cell executor maps to a cold start. Version 1 also
// named which reference simulator wrote the blob; the engine runs one.
const prefixCodecVersion = uint32(2)

// errPrefixCodec wraps every DecodePrefix failure.
var errPrefixCodec = fmt.Errorf("engine: prefix codec")

// EncodePrefix serializes a prefix — position, accumulated trace (the
// row's own encoding), and the full durable snapshot — as one
// self-describing blob, the payload of a durable mid-cell checkpoint.
// Implements CheckpointableScenario.
func (sc *simScenario) EncodePrefix(dst io.Writer, pre *Prefix) error {
	tr, ok := pre.Trace.(simTrace)
	if !ok {
		return fmt.Errorf("%w: prefix trace %T", errPrefixCodec, pre.Trace)
	}
	w := codec.NewWriter(dst)
	w.U32(prefixCodecVersion)
	w.String(sc.row.name)
	w.Int(pre.Epoch)
	w.Bool(pre.Done)
	tr.encodeTo(w)
	if err := w.Err(); err != nil {
		return err
	}
	_, err := pre.Snap.WriteTo(dst)
	return err
}

// DecodePrefix reconstructs a prefix serialized by EncodePrefix. The
// result is Owned — the decoded snapshot has exactly one consumer, so the
// resume path may adopt it zero-copy. Any damage, version skew, or a blob
// written for a different scenario returns an error; the cell executor
// treats every error as "no checkpoint" and runs cold.
// Implements CheckpointableScenario.
func (sc *simScenario) DecodePrefix(src io.Reader) (*Prefix, error) {
	r := codec.NewReader(src)
	if v := r.U32(); v != prefixCodecVersion {
		return nil, fmt.Errorf("%w: version %d, want %d (err=%v)", errPrefixCodec, v, prefixCodecVersion, r.Err())
	}
	if name := r.String(); name != sc.row.name {
		return nil, fmt.Errorf("%w: blob for scenario %q, want %q (err=%v)", errPrefixCodec, name, sc.row.name, r.Err())
	}
	pre := &Prefix{Owned: true}
	pre.Epoch = r.Int()
	pre.Done = r.Bool()
	tr, err := sc.row.decodeTrace(r)
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errPrefixCodec, err)
	}
	pre.Trace = tr
	if pre.Snap, err = sim.ReadSnapshot(src); err != nil {
		return nil, err
	}
	return pre, nil
}

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
// Version 2 carried sim/semiactive's adversary in its trace; the snapshot
// frame carries it since version 3.
const prefixCodecVersion = uint32(3)

// errPrefixCodec wraps every DecodePrefix failure.
var errPrefixCodec = fmt.Errorf("engine: prefix codec")

// EncodePrefix serializes a prefix — position, accumulated trace (the
// row's own walk), and the full durable snapshot — as one self-describing
// blob, the payload of a durable mid-cell checkpoint.
// Implements CheckpointableScenario.
func (sc *simScenario) EncodePrefix(dst io.Writer, pre *Prefix) error {
	if err := sc.walkHead(codec.NewEncoder(dst), pre); err != nil {
		return err
	}
	_, err := pre.Snap.WriteTo(dst)
	return err
}

// DecodePrefix reconstructs a prefix serialized by EncodePrefix, walking
// the blob into a new trace of the row. The result is Owned — the decoded
// snapshot has exactly one consumer, so the resume path may adopt it
// zero-copy. Any damage, version skew, or a blob written for a different
// scenario returns an error; the cell executor treats every error as "no
// checkpoint" and runs cold.
// Implements CheckpointableScenario.
func (sc *simScenario) DecodePrefix(src io.Reader) (*Prefix, error) {
	pre := &Prefix{Owned: true, trace: sc.row.newTrace()}
	if err := sc.walkHead(codec.NewDecoder(src), pre); err != nil {
		return nil, err
	}
	var err error
	if pre.Snap, err = sim.ReadSnapshot(src); err != nil {
		return nil, err
	}
	return pre, nil
}

// loadPrefix is DecodePrefix for cell p without the snapshot: the frame is
// loaded (sim.Simulation.Load) into a spare simulation, or a new one when
// none is idle, configured as the cell's prefix runs (advance, shared), and
// the prefix stands on it, as a prefix the spine advanced does. A spare
// whose load failed goes back to the list, for a genesis start to reset.
func (sc *simScenario) loadPrefix(src io.Reader, p Params) (*Prefix, error) {
	pre := &Prefix{trace: sc.row.newTrace()}
	if err := sc.walkHead(codec.NewDecoder(src), pre); err != nil {
		return nil, err
	}
	s := spare()
	if s == nil {
		s = new(sim.Simulation)
	}
	if err := s.Load(sc.config(p, true), src); err != nil {
		recycle(s)
		return nil, err
	}
	pre.cont = &simCont{s: s}
	return pre, nil
}

// walkHead moves the blob ahead of the snapshot: the codec version, the
// row's name, the prefix's position and its trace. A version or a name
// other than this build's and this row's ends the walk there.
func (sc *simScenario) walkHead(c *codec.Coder, pre *Prefix) error {
	version, name := prefixCodecVersion, sc.row.name
	if c.U32(&version); version != prefixCodecVersion {
		return fmt.Errorf("%w: version %d, want %d (err=%v)", errPrefixCodec, version, prefixCodecVersion, c.Err())
	}
	if c.String(&name); name != sc.row.name {
		return fmt.Errorf("%w: blob for scenario %q, want %q (err=%v)", errPrefixCodec, name, sc.row.name, c.Err())
	}
	c.Int(&pre.Epoch)
	c.Bool(&pre.Done)
	pre.trace.walk(c)
	if err := c.Err(); err != nil {
		return fmt.Errorf("%w: %w", errPrefixCodec, err)
	}
	return nil
}

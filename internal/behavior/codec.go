package behavior

import "repro/internal/codec"

// Walk moves the semi-active adversary's state — the gait state machine —
// for the snapshot codec (sim.Snapshot carries it). A phase other than the
// four the gait has is corrupt.
func (a *SemiActive) Walk(c *codec.Coder) {
	c.U64((*uint64)(&a.gaitFrom))
	if c.Int(&a.gaitPhase); !c.Encoding() && (a.gaitPhase < 0 || a.gaitPhase > 3) {
		c.Corrupt("semi-active gait phase %d", a.gaitPhase)
	}
}

// Walk moves the bouncing adversary's state for the snapshot codec
// (sim.Snapshot carries it): the fork it bounces on, what it has justified
// there, its counters, and how many placement coins it has drawn — which a
// decode bounds (codec.Coder.Bounded) and the next draw replays.
func (b *Bouncer) Walk(c *codec.Coder) {
	if !c.Encoding() {
		b.rng = nil
	}
	for i := range b.anchors {
		c.Raw(b.anchors[i][:])
		b.lastJust[i].Walk(c)
	}
	b.prevTarget.Walk(c)
	c.Bool(&b.armed)
	c.Bounded(&b.draws)
	c.Int(&b.Bounces)
	c.Int(&b.Releases)
}

package behavior

import "repro/internal/codec"

// Walk moves the semi-active adversary's full state — the public
// configuration plus the private gait state machine — for the durable
// snapshot codec. sim.Snapshot deliberately leaves adversary state to the
// caller, so checkpoints of sim/semiactive pair the snapshot with this.
func (s *SemiActive) Walk(c *codec.Coder) {
	c.U64((*uint64)(&s.Reps[0]))
	c.U64((*uint64)(&s.Reps[1]))
	c.U64((*uint64)(&s.StayFrom))
	c.Bool(&s.AutoFinalize)
	c.U64((*uint64)(&s.gaitFrom))
	c.Int(&s.gaitPhase)
}

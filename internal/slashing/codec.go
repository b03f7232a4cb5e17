package slashing

import "repro/internal/codec"

// Walk moves the detector for the durable snapshot codec: the
// already-reported marks, one byte per validator up to the highest one
// reported. The votes it judges are the pool's, and travel with the pool.
// A decoded column that does not end in a mark is corrupt: the encoder
// never writes one.
func (d *Detector) Walk(c *codec.Coder) {
	codec.Slice(c, &d.slashed, 1, func(mark *bool, c *codec.Coder) { c.Bool(mark) })
	if !c.Encoding() && len(d.slashed) > 0 && !d.slashed[len(d.slashed)-1] {
		c.Corrupt("slashing: mark column ends unmarked")
	}
}

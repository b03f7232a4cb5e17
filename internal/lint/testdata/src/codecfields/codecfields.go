// Package codecfields is a gasperlint test fixture. Coder is an in-package
// stand-in for internal/codec's; the analyzer accepts it so fixtures stay
// self-contained. Each want expectation comment asserts a diagnostic
// substring on that line.
package codecfields

type Coder struct{ encoding bool }

func (c *Coder) Encoding() bool { return c.encoding }

func (c *Coder) U64(v *uint64) {}

// Thing has a field its walk forgot and a derived cache field with
// documented waivers.
type Thing struct {
	A uint64
	B uint64 // want "field Thing.B is not referenced by walk Walk"
	//gasper:nocodec fixture: derived, rebuilt on decode
	//gasper:shallow fixture: derived, rebuilt lazily by the clone
	cache map[uint64]uint64
}

func (t *Thing) Walk(c *Coder) {
	c.U64(&t.A) // B is missing: the seeded violation
}

func (t *Thing) Clone() *Thing {
	return &Thing{A: t.A, B: t.B}
}

// Flat is fully covered: every field in its walk, whole-struct copy in
// Clone, all fields value-typed. No diagnostics.
type Flat struct {
	X uint64
	Y [4]uint64
}

func (f *Flat) walk(c *Coder) {
	c.U64(&f.X)
	for i := range f.Y {
		c.U64(&f.Y[i])
	}
}

func (f *Flat) Clone() Flat { return *f }

// Cut is covered too: its walk names col only in the encoding branch,
// which counts, and scratch is waived. No diagnostics.
type Cut struct {
	col []uint64
	//gasper:nocodec fixture: scratch, holds nothing between calls
	scratch []uint64
}

func (k *Cut) walk(c *Coder) {
	var col []uint64
	if c.Encoding() {
		col = k.col
	}
	for i := range col {
		c.U64(&col[i])
	}
}

// Holder's whole-struct copy covers n but aliases data.
type Holder struct {
	data []uint64 // want "reference-typed field Holder.data is shallow-aliased by the whole-struct copy in Clone"
	n    uint64
}

func (h *Holder) Clone() *Holder {
	out := *h
	return &out
}

// Package codec provides the little-endian binary format the durable
// snapshot codec is built on, and the one Coder that moves it in either
// direction. Each type declares its wire form once, as a walk that names
// every field in order:
//
//	func (e *Engine) Walk(c *codec.Coder) {
//		codec.Slice(c, &e.justified, 8+32, walkCheckpoint)
//		c.U64((*uint64)(&e.lastFinalizedAt))
//	}
//
// An encoding Coder writes each field it is handed; a decoding one fills
// it. The error is sticky: a walk strings its fields together without
// checking each one and the caller asks Err once at the end, so the walk
// IS the wire format, and a field cannot be written but not read. A write
// that is not symmetric (a column cut after its last entry, a map in key
// order) branches on Encoding, and what a decoded value must satisfy is
// checked after its fields are read. Slice is the one place a decoded
// count sizes anything.
//
// The format is deliberately dumb: fixed-width little-endian scalars,
// u32-prefixed counts, no varints, no alignment, no reflection. Integrity
// and versioning are the container's job (sim.Snapshot.WriteTo frames the
// payload with a magic, a format version, and a checksum; the store layer
// adds its own checksummed framing on disk), so a decoding Coder can trust
// its input to be well-formed and treat any structural surprise as plain
// corruption.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrCorrupt is the sticky error a decoding Coder records when the input is
// structurally impossible (a count past the remaining input, an
// out-of-range enum). Walks bubble it up; durable-checkpoint callers treat
// it as a silent miss.
var ErrCorrupt = errors.New("codec: corrupt input")

// maxSliceLen bounds any single count read from a source that does not
// report how much it has left, so a corrupt count cannot drive a
// multi-gigabyte allocation before the checksum verdict is in.
const maxSliceLen = 1 << 28

// u32Chunk is how many column values U32s moves per underlying Write or
// Read: a 10k-validator id column is three calls instead of ten thousand.
// The chunk lives on the Coder, not on the heap per call.
const u32Chunk = 1024

// Coder encodes to a writer or decodes from a reader, with a sticky error.
type Coder struct {
	w io.Writer // the destination of an encoding Coder; nil when decoding
	r io.Reader
	// left reports how many unread bytes r holds, when r can tell (a
	// *bytes.Reader can); nil otherwise.
	left  interface{ Len() int }
	err   error
	n     int64
	bound uint64
	buf   [8]byte
	chunk [4 * u32Chunk]byte
}

// NewEncoder returns a Coder that writes to w.
func NewEncoder(w io.Writer) *Coder { return &Coder{w: w} }

// NewDecoder returns a Coder that reads from r. If r reports its unread
// length through a Len() int method, as *bytes.Reader does, every count is
// checked against it.
func NewDecoder(r io.Reader) *Coder {
	c := new(Coder)
	c.ResetDecoder(r)
	return c
}

// ResetEncoder makes c, in place, the Coder NewEncoder(w) returns: a Coder
// kept for many small values moves each without a chunk of its own.
func (c *Coder) ResetEncoder(w io.Writer) {
	c.w, c.r, c.left, c.err, c.n, c.bound = w, nil, nil, nil, 0, 0
}

// ResetDecoder makes c, in place, the Coder NewDecoder(r) returns.
func (c *Coder) ResetDecoder(r io.Reader) {
	left, _ := r.(interface{ Len() int })
	c.w, c.r, c.left, c.err, c.n, c.bound = nil, r, left, nil, 0, 0
}

// Encoding reports whether c writes (true) or reads (false).
func (c *Coder) Encoding() bool { return c.w != nil }

// Err reports the first error, if any.
func (c *Coder) Err() error { return c.err }

// Written reports how many bytes an encoding Coder has handed to its
// destination.
func (c *Coder) Written() int64 { return c.n }

// Fail records an error (a value with no wire form) as the sticky error;
// every later field is skipped.
func (c *Coder) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Corrupt records a structural error (bad tag, impossible index) as the
// sticky error, wrapping ErrCorrupt.
func (c *Coder) Corrupt(format string, args ...any) {
	c.Fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// move writes b when encoding and fills it when decoding.
func (c *Coder) move(b []byte) {
	switch {
	case c.err != nil:
	case c.w != nil:
		var n int
		n, c.err = c.w.Write(b)
		c.n += int64(n)
	default:
		if _, err := io.ReadFull(c.r, b); err != nil {
			c.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
}

// decoded reports whether the last move filled its bytes from the input.
func (c *Coder) decoded() bool { return c.w == nil && c.err == nil }

// U64 moves a uint64.
func (c *Coder) U64(v *uint64) {
	binary.LittleEndian.PutUint64(c.buf[:], *v)
	if c.move(c.buf[:8]); c.decoded() {
		*v = binary.LittleEndian.Uint64(c.buf[:])
	}
}

// U32 moves a uint32.
func (c *Coder) U32(v *uint32) {
	binary.LittleEndian.PutUint32(c.buf[:], *v)
	if c.move(c.buf[:4]); c.decoded() {
		*v = binary.LittleEndian.Uint32(c.buf[:])
	}
}

// I64 moves an int64.
func (c *Coder) I64(v *int64) {
	u := uint64(*v)
	if c.U64(&u); c.decoded() {
		*v = int64(u)
	}
}

// I32 moves an int32.
func (c *Coder) I32(v *int32) {
	u := uint32(*v)
	if c.U32(&u); c.decoded() {
		*v = int32(u)
	}
}

// Int moves an int as 64 bits.
func (c *Coder) Int(v *int) {
	u := uint64(*v)
	if c.U64(&u); c.decoded() {
		*v = int(u)
	}
}

// F64 moves a float64 by bit pattern.
func (c *Coder) F64(v *float64) {
	u := math.Float64bits(*v)
	if c.U64(&u); c.decoded() {
		*v = math.Float64frombits(u)
	}
}

// Byte moves one raw byte (type tags).
func (c *Coder) Byte(v *byte) {
	c.buf[0] = *v
	if c.move(c.buf[:1]); c.decoded() {
		*v = c.buf[0]
	}
}

// Bound sets the largest count Bounded decodes. A walk that replays work
// its input counts reads the count through Bounded, so a hostile count is
// refused before any of the work is done; the caller bounds it by what the
// state it decodes into could have done. A decoding Coder's bound is zero
// until set.
func (c *Coder) Bound(n uint64) { c.bound = n }

// Bounded moves a uint64 count of work. Decoding, a count above the bound
// (Bound) is corrupt and reads as zero.
func (c *Coder) Bounded(v *uint64) {
	if c.U64(v); c.decoded() && *v > c.bound {
		c.Corrupt("count %d exceeds the bound %d", *v, c.bound)
		*v = 0
	}
}

// Bool moves a bool as one byte. Only 0 and 1 are written; any other byte
// is corrupt.
func (c *Coder) Bool(v *bool) {
	b := byte(0)
	if *v {
		b = 1
	}
	if c.Byte(&b); b > 1 {
		c.Corrupt("bool byte %d", b)
	}
	if c.decoded() {
		*v = b == 1
	}
}

// Raw moves b with no length prefix (fixed-size arrays like roots). The
// bytes go through the coder's chunk, so a caller's array does not escape
// to the heap on its way to or from the stream.
func (c *Coder) Raw(b []byte) {
	for len(b) > 0 && c.err == nil {
		k := min(len(b), len(c.chunk))
		if c.w != nil {
			copy(c.chunk[:], b[:k])
		}
		if c.move(c.chunk[:k]); c.decoded() {
			copy(b, c.chunk[:k])
		}
		b = b[k:]
	}
}

// String moves a counted string.
func (c *Coder) String(s *string) {
	b := []byte(*s)
	if Slice(c, &b, 1, func(v *byte, c *Coder) { c.Byte(v) }); c.decoded() {
		*s = string(b)
	}
}

// Count moves a u32 count of elements that each encode as at least size
// bytes. Decoding, a count larger than the bytes the source has left can
// hold is corrupt, and is refused before anything is sized by it; a source
// that cannot tell is held to maxSliceLen instead. A refused count reads
// as zero.
func (c *Coder) Count(n *int, size int) {
	v := uint32(*n)
	if c.U32(&v); c.w != nil {
		return
	}
	*n = 0
	switch {
	case c.err != nil:
	case c.left != nil && int64(v)*int64(size) > int64(c.left.Len()):
		c.Corrupt("%d elements of %d bytes exceed the %d bytes left", v, size, c.left.Len())
	case v > maxSliceLen:
		c.Corrupt("count %d exceeds limit", v)
	default:
		*n = int(v)
	}
}

// Slice moves a counted slice, each element through elem; minElemBytes is
// the fewest bytes an element encodes as. Decoding, Count bounds the count
// by the bytes left, so from a source that reports them the slice is sized
// once, and from any other it grows as elements actually arrive: a corrupt
// count fails at the end of the input instead of allocating what it claims.
// A slice that fails to decode is nil.
//
// Decoding into a slice that has the capacity reuses it, elements
// included: an element within the capacity reaches elem holding what it
// held before (a pointer element still points where it did), and elem sets
// every field it moves. Elements past the capacity start zero.
func Slice[T any](c *Coder, s *[]T, minElemBytes int, elem func(*T, *Coder)) {
	n := len(*s)
	c.Count(&n, minElemBytes)
	if c.w != nil {
		for i := range *s {
			elem(&(*s)[i], c)
		}
		return
	}
	out := sized(c, *s, n)
	for len(out) < n && c.err == nil {
		if len(out) < cap(out) {
			out = out[:len(out)+1]
		} else {
			out = append(out, *new(T))
		}
		elem(&out[len(out)-1], c)
	}
	*s = decodedSlice(c, out)
}

// sized empties s for n decoded elements: room for all of them at once
// when Count has bounded n by the bytes the source holds, and none ahead of
// their arrival when it could not.
func sized[T any](c *Coder, s []T, n int) []T {
	if c.left != nil && cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// decodedSlice is s, or nil when the decode failed.
func decodedSlice[T any](c *Coder, s []T) []T {
	if c.err != nil {
		return nil
	}
	return s
}

// U32s moves a counted column of uint32s, packed, a chunk per write or
// read, under Slice's count rule.
func (c *Coder) U32s(s *[]uint32) {
	n := len(*s)
	c.Count(&n, 4)
	col := *s
	if c.w == nil {
		col = sized(c, col, n)
	}
	for done := 0; done < n && c.err == nil; done += u32Chunk {
		k := min(n-done, u32Chunk)
		if c.w != nil {
			for i, v := range col[done : done+k] {
				binary.LittleEndian.PutUint32(c.chunk[4*i:], v)
			}
		}
		if c.move(c.chunk[:4*k]); c.decoded() {
			for i := 0; i < k; i++ {
				col = append(col, binary.LittleEndian.Uint32(c.chunk[4*i:]))
			}
		}
	}
	if c.w == nil {
		*s = decodedSlice(c, col)
	}
}

// Package codec provides the little-endian binary reader/writer the
// durable snapshot codec is built on. Both halves are sticky-error: a
// caller strings together field writes (or reads) without checking each
// one and asks Err once at the end, which keeps the per-package snapshot
// codecs (blocktree, forkchoice, ffg, attestation, slashing, network,
// beacon, sim) declarative — the field list IS the wire format.
//
// The format is deliberately dumb: fixed-width little-endian scalars,
// u32-prefixed byte strings, no varints, no alignment, no reflection.
// Integrity and versioning are the container's job (sim.Snapshot.WriteTo
// frames the payload with a magic, a format version, and a checksum; the
// store layer adds its own checksummed framing on disk), so a Reader can
// trust its input to be well-formed and treat any structural surprise as
// plain corruption.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrCorrupt is the sticky error a Reader records when the input is
// structurally impossible (a length prefix past the remaining input, an
// out-of-range enum). Decoders bubble it up; durable-checkpoint callers
// treat it as a silent miss.
var ErrCorrupt = errors.New("codec: corrupt input")

// maxSliceLen bounds any single length prefix read from a source that
// does not report how much it has left, so a corrupt length cannot drive a
// multi-gigabyte allocation before the checksum verdict is in.
const maxSliceLen = 1 << 28

// Writer encodes fixed-width little-endian values with a sticky error.
type Writer struct {
	w     io.Writer
	err   error
	n     int64
	buf   [8]byte
	chunk [4 * u32Chunk]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err reports the first write error, if any.
func (w *Writer) Err() error { return w.err }

// Written reports how many bytes the writer has handed to its destination.
func (w *Writer) Written() int64 { return w.n }

// Fail records an encoder-level error (a value with no wire form) as the
// sticky error; every later write is dropped.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	var n int
	n, w.err = w.w.Write(b)
	w.n += int64(n)
}

// U64 writes a uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.write(w.buf[:8])
}

// U32 writes a uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// I64 writes an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// I32 writes an int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// Int writes an int as 64 bits.
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// F64 writes a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	w.buf[0] = 0
	if v {
		w.buf[0] = 1
	}
	w.write(w.buf[:1])
}

// Byte writes one raw byte (type tags).
func (w *Writer) Byte(v byte) {
	w.buf[0] = v
	w.write(w.buf[:1])
}

// Raw writes b with no length prefix (fixed-size arrays like roots). The
// bytes go out through the writer's chunk, so a caller's array does not
// escape to the heap on its way to the destination.
func (w *Writer) Raw(b []byte) {
	for len(b) > 0 && w.err == nil {
		k := copy(w.chunk[:], b)
		w.write(w.chunk[:k])
		b = b[k:]
	}
}

// Bytes writes a u32 length prefix followed by b.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// String writes a u32 length prefix followed by the string bytes.
func (w *Writer) String(s string) { w.Bytes([]byte(s)) }

// Len writes a slice or map length as a u32 prefix.
func (w *Writer) Len(n int) { w.U32(uint32(n)) }

// u32Chunk is how many column values U32s moves per underlying Write or
// Read: a 10k-validator id column is three calls instead of ten thousand.
// The chunk lives on the Writer or Reader, not on the heap per call.
const u32Chunk = 1024

// U32s writes a u32 length prefix followed by the values, packed.
func (w *Writer) U32s(vs []uint32) {
	w.Len(len(vs))
	for len(vs) > 0 {
		k := min(len(vs), u32Chunk)
		for i, v := range vs[:k] {
			binary.LittleEndian.PutUint32(w.chunk[4*i:], v)
		}
		w.write(w.chunk[:4*k])
		vs = vs[k:]
	}
}

// Reader decodes the Writer's format with a sticky error.
type Reader struct {
	r io.Reader
	// left reports how many unread bytes r holds, when r can tell (a
	// *bytes.Reader can); nil otherwise.
	left  interface{ Len() int }
	err   error
	buf   [8]byte
	chunk [4 * u32Chunk]byte
}

// NewReader wraps r. If r reports its unread length through a Len() int
// method, as *bytes.Reader does, every length prefix is checked against it.
func NewReader(r io.Reader) *Reader {
	left, _ := r.(interface{ Len() int })
	return &Reader{r: r, left: left}
}

// Err reports the first read error, if any.
func (r *Reader) Err() error { return r.err }

// Corrupt records a decoder-level structural error (bad tag, impossible
// index) as the sticky error.
func (r *Reader) Corrupt(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (r *Reader) read(b []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	r.read(r.buf[:8])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	r.read(r.buf[:4])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// I32 reads an int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a bool. Writer.Bool writes only 0 and 1; any other byte is
// corrupt.
func (r *Reader) Bool() bool {
	r.read(r.buf[:1])
	if r.err == nil && r.buf[0] > 1 {
		r.Corrupt("bool byte %d", r.buf[0])
	}
	return r.err == nil && r.buf[0] == 1
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	r.read(r.buf[:1])
	if r.err != nil {
		return 0
	}
	return r.buf[0]
}

// Raw fills b with no length prefix, through the reader's chunk (see
// Writer.Raw).
func (r *Reader) Raw(b []byte) {
	for len(b) > 0 && r.err == nil {
		r.read(r.chunk[:min(len(b), len(r.chunk))])
		b = b[copy(b, r.chunk[:]):]
	}
}

// Bytes reads a u32-length-prefixed byte string.
func (r *Reader) Bytes() []byte {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, n)
	r.read(b)
	if r.err != nil {
		return nil
	}
	return b
}

// String reads a u32-length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// U32s reads a column written by Writer.U32s. From a source that reports
// its length, Len has bounded the column by the bytes left, and it is sized
// once; from any other it grows a chunk at a time as bytes actually arrive,
// so a corrupt length prefix fails at the end of the input instead of
// allocating what it claims.
func (r *Reader) U32s() []uint32 {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	size := n
	if r.left == nil {
		size = min(n, u32Chunk)
	}
	out := make([]uint32, 0, size)
	for len(out) < n {
		k := min(n-len(out), u32Chunk)
		r.read(r.chunk[:4*k])
		if r.err != nil {
			return nil
		}
		for i := 0; i < k; i++ {
			out = append(out, binary.LittleEndian.Uint32(r.chunk[4*i:]))
		}
	}
	return out
}

// Len reads a u32 length prefix. Every element a prefix counts encodes as
// at least one byte, so a count larger than the bytes the source has left
// is corrupt, and is refused before a decoder sizes anything by it; a
// source that cannot tell is held to maxSliceLen instead.
func (r *Reader) Len() int { return r.Count(1) }

// Count reads a u32 length prefix of elements that each encode as at least
// size bytes, and refuses a count the bytes left cannot hold. A decoder
// that sizes its columns up front by a count reads it with Count, so what
// it allocates stays in proportion to the bytes actually present.
func (r *Reader) Count(size int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if r.left != nil && int64(n)*int64(size) > int64(r.left.Len()) {
		r.Corrupt("%d elements of %d bytes exceed the %d bytes left", n, size, r.left.Len())
		return 0
	}
	if n > maxSliceLen {
		r.Corrupt("length prefix %d exceeds limit", n)
		return 0
	}
	return int(n)
}

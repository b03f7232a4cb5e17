package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// failingWriter accepts `ok` writes, then fails every one after.
type failingWriter struct {
	ok     int
	writes int
	err    error
}

func (f *failingWriter) Write(b []byte) (int, error) {
	f.writes++
	if f.writes > f.ok {
		return 0, f.err
	}
	return len(b), nil
}

// kinds holds one field of every kind a Coder moves.
type kinds struct {
	U64     uint64
	U32     uint32
	I64     int64
	I32     int32
	Int     int
	F64     float64
	True    bool
	False   bool
	Byte    byte
	Root    [4]byte
	String  string
	Empty   string
	Ints    []int
	Column  []uint32
	NoIDs   []uint32
	Strings []string
}

func (k *kinds) walk(c *Coder) {
	c.U64(&k.U64)
	c.U32(&k.U32)
	c.I64(&k.I64)
	c.I32(&k.I32)
	c.Int(&k.Int)
	c.F64(&k.F64)
	c.Bool(&k.True)
	c.Bool(&k.False)
	c.Byte(&k.Byte)
	c.Raw(k.Root[:])
	c.String(&k.String)
	c.String(&k.Empty)
	Slice(c, &k.Ints, 8, func(v *int, c *Coder) { c.Int(v) })
	c.U32s(&k.Column)
	c.U32s(&k.NoIDs)
	Slice(c, &k.Strings, 4, func(s *string, c *Coder) { c.String(s) })
}

// TestRoundTrip: every field kind reads back as written, from a source that
// reports its length and from one that does not, and the input is consumed
// exactly.
func TestRoundTrip(t *testing.T) {
	column := make([]uint32, 2*u32Chunk+7) // spans three chunks
	for i := range column {
		column[i] = uint32(i) * 2654435761
	}
	want := kinds{
		U64: math.MaxUint64, U32: 0xdeadbeef, I64: -5, I32: -7, Int: -9, F64: math.Inf(-1),
		True: true, Byte: 0xab, Root: [4]byte{1, 2, 3, 4}, String: "sim/leak",
		Ints: []int{3, -1, 4}, Column: column, Strings: []string{"a", "", "bc"},
	}
	var buf bytes.Buffer
	c := NewEncoder(&buf)
	want.walk(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Written() != int64(buf.Len()) {
		t.Fatalf("Written = %d, buffer holds %d", c.Written(), buf.Len())
	}
	for _, src := range []io.Reader{bytes.NewReader(buf.Bytes()), io.MultiReader(bytes.NewReader(buf.Bytes()))} {
		var got kinds
		c := NewDecoder(src)
		got.walk(c)
		if err := c.Err(); err != nil {
			t.Fatalf("%T: %v", src, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: decoded %+v, want %+v", src, got, want)
		}
		if n, _ := src.Read(make([]byte, 1)); n != 0 {
			t.Errorf("%T: bytes left unread", src)
		}
	}
}

// TestWriterFirstErrorSticks: the first error of an encoding Coder — the
// underlying writer's, or one a walk records with Fail — is the one Err
// reports, and nothing is written after it.
func TestWriterFirstErrorSticks(t *testing.T) {
	disk, noCodec := errors.New("disk full"), errors.New("no codec")
	one, two, three := uint64(1), uint64(2), uint64(3)

	fw := &failingWriter{ok: 1, err: disk}
	c := NewEncoder(fw)
	c.U64(&one)
	c.U64(&two) // fails
	c.U64(&three)
	c.Fail(noCodec)
	if err := c.Err(); err != disk {
		t.Fatalf("Err = %v, want the first write's %v", err, disk)
	}
	if fw.writes != 2 {
		t.Fatalf("underlying writer saw %d writes, want 2 (none after the failure)", fw.writes)
	}

	var buf bytes.Buffer
	c = NewEncoder(&buf)
	tag := byte(1)
	c.Byte(&tag)
	c.Fail(noCodec)
	c.Fail(disk)
	c.U64(&two)
	col := []uint32{3}
	c.U32s(&col)
	if err := c.Err(); err != noCodec {
		t.Fatalf("Err = %v, want the first Fail's %v", err, noCodec)
	}
	if buf.Len() != 1 {
		t.Fatalf("%d bytes written, want only the 1 before Fail", buf.Len())
	}
}

// TestReaderFirstErrorSticks: after the first error of a decoding Coder — a
// short read, or one a walk records with Corrupt — every scalar and string
// is left as it was and every slice comes back nil, without touching the
// input, and Err keeps reporting that first error, wrapping ErrCorrupt.
func TestReaderFirstErrorSticks(t *testing.T) {
	src := bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	c := NewDecoder(src)
	var v uint64
	if c.U64(&v); v != 0x0807060504030201 {
		t.Fatalf("U64 = %#x", v)
	}
	if c.U64(&v); v != 0x0807060504030201 { // three bytes left
		t.Fatalf("short U64 changed its target to %#x", v)
	}
	short := c.Err()
	if !errors.Is(short, ErrCorrupt) {
		t.Fatalf("short read error %v does not wrap ErrCorrupt", short)
	}
	c.Corrupt("later verdict")
	before := kinds{U32: 1, Int: 2, F64: 3, True: true, Byte: 4, Root: [4]byte{5}, String: "six",
		Ints: []int{7}, Column: []uint32{8}}
	after, want := before, before
	want.Ints, want.Column = nil, nil
	after.walk(c)
	if !reflect.DeepEqual(after, want) {
		t.Fatalf("fields decoded after the first error read %+v, want %+v", after, want)
	}
	if c.Err() != short {
		t.Fatalf("Err = %v, want the first error %v", c.Err(), short)
	}

	src = bytes.NewReader([]byte{9, 0, 0, 0, 7})
	c = NewDecoder(src)
	var tag uint32
	if c.U32(&tag); tag != 9 {
		t.Fatalf("U32 = %d", tag)
	}
	c.Corrupt("unknown tag %d", 9)
	verdict := c.Err()
	if !errors.Is(verdict, ErrCorrupt) {
		t.Fatalf("Corrupt's error %v does not wrap ErrCorrupt", verdict)
	}
	c.Corrupt("second verdict")
	var b byte
	if c.Byte(&b); b != 0 || src.Len() != 1 {
		t.Fatalf("a read after Corrupt consumed input (%d bytes left, want 1)", src.Len())
	}
	if c.Err() != verdict {
		t.Fatalf("Err = %v, want the first verdict %v", c.Err(), verdict)
	}
}

// counted reads each counted field kind from a decoding Coder and reports
// whether it came back empty.
var counted = map[string]func(*Coder) bool{
	"Count":  func(c *Coder) bool { n := 0; c.Count(&n, 1); return n == 0 },
	"String": func(c *Coder) bool { var s string; c.String(&s); return s == "" },
	"U32s":   func(c *Coder) bool { var s []uint32; c.U32s(&s); return s == nil },
	"Slice": func(c *Coder) bool {
		var s []byte
		Slice(c, &s, 1, func(v *byte, c *Coder) { c.Byte(v) })
		return s == nil
	},
}

// TestLenRejectsAbsurdPrefix: read from a source that cannot report how
// much it has left, a count over maxSliceLen is corruption before anything
// is allocated for it; the limit itself passes.
func TestLenRejectsAbsurdPrefix(t *testing.T) {
	prefix := func(n uint32) *Coder {
		return NewDecoder(io.MultiReader(bytes.NewReader(binary.LittleEndian.AppendUint32(nil, n))))
	}
	c, n := prefix(maxSliceLen), 0
	if c.Count(&n, 1); n != maxSliceLen || c.Err() != nil {
		t.Fatalf("Count at the limit = %d, %v", n, c.Err())
	}
	for name, read := range counted {
		c := prefix(maxSliceLen + 1)
		if !read(c) || !errors.Is(c.Err(), ErrCorrupt) {
			t.Fatalf("%s accepted a count over the limit (err %v)", name, c.Err())
		}
	}
}

// TestLenRefusesCountPastSourceEnd: read from a source that reports how
// much it has left, a count may name as many elements as there are bytes
// after it, and no more.
func TestLenRefusesCountPastSourceEnd(t *testing.T) {
	prefix := func(n uint32, body int) *Coder {
		frame := binary.LittleEndian.AppendUint32(nil, n)
		return NewDecoder(bytes.NewReader(append(frame, make([]byte, body)...)))
	}
	count := func(n uint32, size int) (int, error) {
		c, got := prefix(n, 8), 0
		c.Count(&got, size)
		return got, c.Err()
	}
	if n, err := count(8, 1); n != 8 || err != nil {
		t.Fatalf("a count of the bytes left was refused: %v", err)
	}
	if n, err := count(2, 4); n != 2 || err != nil {
		t.Fatalf("a count of 4-byte elements the bytes left hold was refused: %v", err)
	}
	if n, err := count(3, 4); n != 0 || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a count of 4-byte elements past the bytes left read %d (err %v)", n, err)
	}
	for name, read := range counted {
		c := prefix(9, 8)
		if !read(c) || !errors.Is(c.Err(), ErrCorrupt) {
			t.Errorf("%s accepted a count past the end of its source (err %v)", name, c.Err())
		}
	}
}

// TestBoolRejectsNonCanonicalByte: only 0 and 1 are written for a bool, so
// any other byte is corrupt rather than true.
func TestBoolRejectsNonCanonicalByte(t *testing.T) {
	c := NewDecoder(bytes.NewReader([]byte{0, 1, 2}))
	var a, b, x bool
	c.Bool(&a)
	if c.Bool(&b); a || !b || c.Err() != nil {
		t.Fatalf("canonical bools misread (err %v)", c.Err())
	}
	if c.Bool(&x); x || !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("byte 2 read as a bool, err %v", c.Err())
	}
}

// TestTruncatedInputYieldsNoPartialValue: a string, a column or a slice
// whose count claims more than the input holds fails at the end of the
// input and yields nothing, not the part that did arrive.
func TestTruncatedInputYieldsNoPartialValue(t *testing.T) {
	encode := func(walk func(*Coder)) []byte {
		var buf bytes.Buffer
		walk(NewEncoder(&buf))
		return buf.Bytes()
	}
	long := string(bytes.Repeat([]byte{7}, 100))
	whole := encode(func(c *Coder) { c.String(&long) })
	c := NewDecoder(bytes.NewReader(whole[:len(whole)-1]))
	var str string
	if c.String(&str); str != "" || !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("truncated String = %d bytes, err %v; want none and ErrCorrupt", len(str), c.Err())
	}

	// Cut inside the second chunk: the first arrived whole.
	col := make([]uint32, u32Chunk+10)
	whole = encode(func(c *Coder) { c.U32s(&col) })
	for _, src := range []io.Reader{bytes.NewReader(whole[:len(whole)-4]), io.MultiReader(bytes.NewReader(whole[:len(whole)-4]))} {
		c := NewDecoder(src)
		var got []uint32
		if c.U32s(&got); got != nil || !errors.Is(c.Err(), ErrCorrupt) {
			t.Fatalf("truncated U32s from a %T = %d values, err %v; want nil and ErrCorrupt", src, len(got), c.Err())
		}
	}

	ints := []int{1, 2, 3}
	whole = encode(func(c *Coder) { Slice(c, &ints, 8, func(v *int, c *Coder) { c.Int(v) }) })
	c = NewDecoder(bytes.NewReader(whole[:len(whole)-1]))
	var got []int
	if Slice(c, &got, 8, func(v *int, c *Coder) { c.Int(v) }); got != nil || !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("truncated Slice = %v, err %v; want nil and ErrCorrupt", got, c.Err())
	}

	// A count that lies about a huge column fails when the input ends,
	// having grown only as far as the bytes that arrived.
	lie := binary.LittleEndian.AppendUint32(nil, maxSliceLen)
	lie = append(lie, make([]byte, 4*3)...)
	c = NewDecoder(io.MultiReader(bytes.NewReader(lie)))
	var lied []uint32
	if c.U32s(&lied); lied != nil || !errors.Is(c.Err(), ErrCorrupt) {
		t.Fatalf("lying U32s count = %d values, err %v; want nil and ErrCorrupt", len(lied), c.Err())
	}
}

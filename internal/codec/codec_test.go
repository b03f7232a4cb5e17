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

// TestRoundTrip: every field kind reads back as written, and the input is
// consumed exactly.
func TestRoundTrip(t *testing.T) {
	column := make([]uint32, 2*u32Chunk+7) // spans three chunks
	for i := range column {
		column[i] = uint32(i) * 2654435761
	}
	root := [4]byte{1, 2, 3, 4}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(math.MaxUint64)
	w.U32(0xdeadbeef)
	w.I64(-5)
	w.I32(-7)
	w.Int(-9)
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.Byte(0xab)
	w.Raw(root[:])
	w.Bytes([]byte("payload"))
	w.Bytes(nil)
	w.String("sim/leak")
	w.Len(3)
	w.U32s(column)
	w.U32s(nil)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	var gotRoot [4]byte
	checks := []struct {
		name      string
		got, want any
	}{
		{"U64", r.U64(), uint64(math.MaxUint64)},
		{"U32", r.U32(), uint32(0xdeadbeef)},
		{"I64", r.I64(), int64(-5)},
		{"I32", r.I32(), int32(-7)},
		{"Int", r.Int(), -9},
		{"F64", r.F64(), math.Inf(-1)},
		{"Bool true", r.Bool(), true},
		{"Bool false", r.Bool(), false},
		{"Byte", r.Byte(), byte(0xab)},
		{"Raw", func() [4]byte { r.Raw(gotRoot[:]); return gotRoot }(), root},
		{"Bytes", r.Bytes(), []byte("payload")},
		{"empty Bytes", r.Bytes(), []byte(nil)},
		{"String", r.String(), "sim/leak"},
		{"Len", r.Len(), 3},
		{"U32s", r.U32s(), column},
		{"empty U32s", r.U32s(), []uint32(nil)},
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left unread", buf.Len())
	}
}

// TestWriterFirstErrorSticks: the first error — the underlying writer's, or
// one an encoder records with Fail — is the one Err reports, and nothing is
// written after it.
func TestWriterFirstErrorSticks(t *testing.T) {
	disk, noCodec := errors.New("disk full"), errors.New("no codec")

	fw := &failingWriter{ok: 1, err: disk}
	w := NewWriter(fw)
	w.U64(1)
	w.U64(2) // fails
	w.U64(3)
	w.Fail(noCodec)
	if err := w.Err(); err != disk {
		t.Fatalf("Err = %v, want the first write's %v", err, disk)
	}
	if fw.writes != 2 {
		t.Fatalf("underlying writer saw %d writes, want 2 (none after the failure)", fw.writes)
	}

	var buf bytes.Buffer
	w = NewWriter(&buf)
	w.Byte(1)
	w.Fail(noCodec)
	w.Fail(disk)
	w.U64(2)
	w.U32s([]uint32{3})
	if err := w.Err(); err != noCodec {
		t.Fatalf("Err = %v, want the first Fail's %v", err, noCodec)
	}
	if buf.Len() != 1 {
		t.Fatalf("%d bytes written, want only the 1 before Fail", buf.Len())
	}
}

// TestReaderFirstErrorSticks: after the first error — a short read, or one a
// decoder records with Corrupt — every read returns the zero value without
// touching the input, and Err keeps reporting that first error, wrapping
// ErrCorrupt.
func TestReaderFirstErrorSticks(t *testing.T) {
	src := bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	r := NewReader(src)
	if got := r.U64(); got != 0x0807060504030201 {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.U64(); got != 0 { // three bytes left
		t.Fatalf("short U64 = %#x, want 0", got)
	}
	short := r.Err()
	if !errors.Is(short, ErrCorrupt) {
		t.Fatalf("short read error %v does not wrap ErrCorrupt", short)
	}
	r.Corrupt("later verdict")
	raw := []byte{0xff}
	r.Raw(raw)
	if r.U32() != 0 || r.Byte() != 0 || r.Bool() || r.Int() != 0 || r.F64() != 0 ||
		r.Len() != 0 || r.Bytes() != nil || r.String() != "" || r.U32s() != nil || raw[0] != 0xff {
		t.Fatal("a read after the first error returned a value or filled its buffer")
	}
	if r.Err() != short {
		t.Fatalf("Err = %v, want the first error %v", r.Err(), short)
	}

	src = bytes.NewReader([]byte{9, 0, 0, 0, 7})
	r = NewReader(src)
	if tag := r.U32(); tag != 9 {
		t.Fatalf("U32 = %d", tag)
	}
	r.Corrupt("unknown tag %d", 9)
	verdict := r.Err()
	if !errors.Is(verdict, ErrCorrupt) {
		t.Fatalf("Corrupt's error %v does not wrap ErrCorrupt", verdict)
	}
	r.Corrupt("second verdict")
	if r.Byte() != 0 || src.Len() != 1 {
		t.Fatalf("a read after Corrupt consumed input (%d bytes left, want 1)", src.Len())
	}
	if r.Err() != verdict {
		t.Fatalf("Err = %v, want the first verdict %v", r.Err(), verdict)
	}
}

// TestLenRejectsAbsurdPrefix: read from a source that cannot report how
// much it has left, a length prefix over maxSliceLen is corruption before
// anything is allocated for it; the limit itself passes.
func TestLenRejectsAbsurdPrefix(t *testing.T) {
	prefix := func(n uint32) *Reader {
		return NewReader(io.MultiReader(bytes.NewReader(binary.LittleEndian.AppendUint32(nil, n))))
	}
	r := prefix(maxSliceLen)
	if n := r.Len(); n != maxSliceLen || r.Err() != nil {
		t.Fatalf("Len at the limit = %d, %v", n, r.Err())
	}
	for _, read := range map[string]func(*Reader) bool{
		"Len":   func(r *Reader) bool { return r.Len() == 0 },
		"Bytes": func(r *Reader) bool { return r.Bytes() == nil },
		"U32s":  func(r *Reader) bool { return r.U32s() == nil },
	} {
		r := prefix(maxSliceLen + 1)
		if !read(r) || !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("a prefix over the limit was accepted (err %v)", r.Err())
		}
	}
}

// TestLenRefusesCountPastSourceEnd: read from a source that reports how
// much it has left, a count may name as many elements as there are bytes
// after it, and no more.
func TestLenRefusesCountPastSourceEnd(t *testing.T) {
	prefix := func(n uint32, body int) *Reader {
		frame := binary.LittleEndian.AppendUint32(nil, n)
		return NewReader(bytes.NewReader(append(frame, make([]byte, body)...)))
	}
	if r := prefix(8, 8); r.Len() != 8 || r.Err() != nil {
		t.Fatalf("a count of the bytes left was refused: %v", r.Err())
	}
	for name, read := range map[string]func(*Reader) bool{
		"Len":   func(r *Reader) bool { return r.Len() == 0 },
		"Bytes": func(r *Reader) bool { return r.Bytes() == nil },
		"U32s":  func(r *Reader) bool { return r.U32s() == nil },
	} {
		r := prefix(9, 8)
		if !read(r) || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s accepted a count past the end of its source (err %v)", name, r.Err())
		}
	}
}

// TestBoolRejectsNonCanonicalByte: Writer.Bool writes only 0 and 1, so any
// other byte is corrupt rather than true.
func TestBoolRejectsNonCanonicalByte(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0, 1, 2}))
	if r.Bool() || !r.Bool() || r.Err() != nil {
		t.Fatalf("canonical bools misread (err %v)", r.Err())
	}
	if r.Bool() || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("byte 2 read as a bool, err %v", r.Err())
	}
}

// TestTruncatedInputYieldsNoPartialValue: Bytes and U32s whose prefix claims
// more than the input holds fail at the end of the input and return nothing,
// not the part that did arrive.
func TestTruncatedInputYieldsNoPartialValue(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bytes(bytes.Repeat([]byte{7}, 100))
	whole := append([]byte(nil), buf.Bytes()...)
	r := NewReader(bytes.NewReader(whole[:len(whole)-1]))
	if got := r.Bytes(); got != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("truncated Bytes = %d bytes, err %v; want nil and ErrCorrupt", len(got), r.Err())
	}

	// Cut inside the second chunk: the first arrived whole.
	buf.Reset()
	w = NewWriter(&buf)
	w.U32s(make([]uint32, u32Chunk+10))
	whole = append([]byte(nil), buf.Bytes()...)
	r = NewReader(bytes.NewReader(whole[:len(whole)-4]))
	if got := r.U32s(); got != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("truncated U32s = %d values, err %v; want nil and ErrCorrupt", len(got), r.Err())
	}

	// A prefix that lies about a huge column fails when the input ends,
	// having grown only as far as the bytes that arrived.
	lie := binary.LittleEndian.AppendUint32(nil, maxSliceLen)
	lie = append(lie, make([]byte, 4*3)...)
	r = NewReader(bytes.NewReader(lie))
	if got := r.U32s(); got != nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("lying U32s prefix = %d values, err %v; want nil and ErrCorrupt", len(got), r.Err())
	}
}

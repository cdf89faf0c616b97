package checkpoint

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Begin("outer", 1)
	e.U8(7)
	e.U16(65535)
	e.U32(1 << 30)
	e.U64(1 << 62)
	e.I8(-5)
	e.I32(-123456)
	e.I64(-1 << 40)
	e.Int(-42)
	e.F64(3.25)
	e.Bool(true)
	e.Bool(false)
	e.String("hello")
	e.Bytes([]byte{1, 2, 3})
	e.U8s([]uint8{9, 8})
	e.I8s([]int8{-1, 1})
	e.U32s([]uint32{100})
	e.U64s([]uint64{1 << 50})
	e.Bools([]bool{true, false, true})
	e.Begin("inner", 3)
	e.U64(99)
	e.End()
	e.End()

	d := NewDecoder(e.Blob())
	if v := d.Open("outer", 1); v != 1 {
		t.Fatalf("outer version %d, want 1 (err %v)", v, d.Err())
	}
	if got := d.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := d.U16(); got != 65535 {
		t.Fatalf("U16 = %d", got)
	}
	if got := d.U32(); got != 1<<30 {
		t.Fatalf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<62 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.I8(); got != -5 {
		t.Fatalf("I8 = %d", got)
	}
	if got := d.I32(); got != -123456 {
		t.Fatalf("I32 = %d", got)
	}
	if got := d.I64(); got != -1<<40 {
		t.Fatalf("I64 = %d", got)
	}
	if got := d.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if got := d.F64(); got != 3.25 {
		t.Fatalf("F64 = %v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool roundtrip")
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := d.Bytes(); string(got) != "\x01\x02\x03" {
		t.Fatalf("Bytes = %v", got)
	}
	u8 := make([]uint8, 2)
	d.U8sInto(u8)
	if u8[0] != 9 || u8[1] != 8 {
		t.Fatalf("U8sInto = %v", u8)
	}
	i8 := make([]int8, 2)
	d.I8sInto(i8)
	if i8[0] != -1 || i8[1] != 1 {
		t.Fatalf("I8sInto = %v", i8)
	}
	u32 := make([]uint32, 1)
	d.U32sInto(u32)
	if u32[0] != 100 {
		t.Fatalf("U32sInto = %v", u32)
	}
	u64 := make([]uint64, 1)
	d.U64sInto(u64)
	if u64[0] != 1<<50 {
		t.Fatalf("U64sInto = %v", u64)
	}
	bs := make([]bool, 3)
	d.BoolsInto(bs)
	if !bs[0] || bs[1] || !bs[2] {
		t.Fatalf("BoolsInto = %v", bs)
	}
	if v := d.Open("inner", 5); v != 3 {
		t.Fatalf("inner version %d, want 3 (err %v)", v, d.Err())
	}
	if got := d.U64(); got != 99 {
		t.Fatalf("inner U64 = %d", got)
	}
	d.Close()
	d.Close()
	if err := d.Err(); err != nil {
		t.Fatalf("roundtrip error: %v", err)
	}
}

// TestTrailerMatchesBytes: a blob whose nested sections end in a
// Trailer, followed by the trailing slice, is byte for byte the blob
// Bytes builds; a write between Trailer and End panics.
func TestTrailerMatchesBytes(t *testing.T) {
	frame := func(e *Encoder, payload []byte, trailer bool) []byte {
		e.Reset()
		e.Begin("outer", 1)
		e.U64(7)
		e.Begin("inner", 2)
		e.String("key")
		if trailer {
			e.Trailer(len(payload))
		} else {
			e.Bytes(payload)
		}
		e.End()
		e.End()
		return append([]byte(nil), e.Blob()...)
	}
	var e Encoder
	for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{1, 2, 3}, 999)} {
		want := frame(&e, payload, false)
		got := append(frame(&e, payload, true), payload...)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte payload: header+trailer (%d bytes) differs from Bytes frame (%d bytes)", len(payload), len(got), len(want))
		}
		d := NewDecoder(got)
		d.Open("outer", 1)
		d.U64()
		d.Open("inner", 2)
		_ = d.String()
		if b := d.Bytes(); !bytes.Equal(b, payload) || d.Err() != nil {
			t.Fatalf("trailing payload read back as %d bytes (err %v), want %d", len(b), d.Err(), len(payload))
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a write between Trailer and End did not panic")
		}
	}()
	e.Reset()
	e.Begin("s", 1)
	e.Trailer(4)
	e.U8(0)
	e.End()
}

// TestResetReusesBuffer: a Reset encoder builds the same blob as a
// fresh one, and once grown encodes without allocating.
func TestResetReusesBuffer(t *testing.T) {
	build := func(e *Encoder) []byte {
		e.Begin("s", 1)
		e.U32s(make([]uint32, 300))
		e.I8s(make([]int8, 100))
		e.End()
		return e.Blob()
	}
	want := append([]byte(nil), build(NewEncoder())...)
	var e Encoder
	for i := 0; i < 3; i++ {
		e.Reset()
		if got := build(&e); !bytes.Equal(got, want) {
			t.Fatalf("pass %d: reused encoder built %d bytes, fresh %d", i, len(got), len(want))
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { e.Reset(); build(&e) }); allocs != 0 {
		t.Fatalf("%v allocs per blob on a grown encoder, want 0", allocs)
	}
}

// TestRefuseNewerFormat: a blob stamped with a future format version is
// rejected with the migration-discipline error, not misread.
func TestRefuseNewerFormat(t *testing.T) {
	e := NewEncoder()
	blob := e.Blob()
	// Bump the format version field (bytes 4..5, little-endian).
	blob[4], blob[5] = 0xFF, 0x00
	d := NewDecoder(blob)
	err := d.Err()
	if err == nil {
		t.Fatal("newer-format blob accepted")
	}
	if !strings.Contains(err.Error(), "understands at most format") {
		t.Fatalf("wrong refuse-newer error: %v", err)
	}
}

// TestRefuseNewerSection: a section versioned above what the reader
// passes as its maximum is refused with a clear error.
func TestRefuseNewerSection(t *testing.T) {
	e := NewEncoder()
	e.Begin("tage", 9)
	e.U64(1)
	e.End()
	d := NewDecoder(e.Blob())
	d.Open("tage", 2)
	err := d.Err()
	if err == nil {
		t.Fatal("newer section accepted")
	}
	if !strings.Contains(err.Error(), `section "tage" written under version 9`) {
		t.Fatalf("wrong section refuse-newer error: %v", err)
	}
}

// TestSectionNameMismatch: restoring the wrong predictor's blob fails
// loudly instead of misinterpreting bytes.
func TestSectionNameMismatch(t *testing.T) {
	e := NewEncoder()
	e.Begin("gshare", 1)
	e.End()
	d := NewDecoder(e.Blob())
	d.Open("tage", 1)
	if d.Err() == nil {
		t.Fatal("mismatched section name accepted")
	}
}

// TestLengthMismatch: a stored slice sized for another configuration is
// a config-mismatch error, not a partial fill.
func TestLengthMismatch(t *testing.T) {
	e := NewEncoder()
	e.I8s(make([]int8, 4))
	d := NewDecoder(e.Blob())
	d.I8sInto(make([]int8, 8))
	if d.Err() == nil {
		t.Fatal("slice length mismatch accepted")
	}
}

// TestTruncation: every truncation point of a valid blob errors instead
// of panicking or returning fabricated values.
func TestTruncation(t *testing.T) {
	e := NewEncoder()
	e.Begin("s", 1)
	e.U64(42)
	e.U32s([]uint32{1, 2, 3})
	e.End()
	blob := e.Blob()
	for n := 0; n < len(blob); n++ {
		d := NewDecoder(blob[:n])
		d.Open("s", 1)
		d.U64()
		dst := make([]uint32, 3)
		d.U32sInto(dst)
		d.Close()
		if d.Err() == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}

// TestCorruptSliceLength: a length prefix claiming more elements than
// bytes remain must fail without allocating the claimed size.
func TestCorruptSliceLength(t *testing.T) {
	e := NewEncoder()
	e.U32(0xFFFFFFFF) // bogus length prefix with no payload
	d := NewDecoder(e.Blob())
	d.U64sInto(make([]uint64, 2))
	if d.Err() == nil {
		t.Fatal("absurd slice length accepted")
	}
}

package checkpoint

import (
	"bytes"
	"testing"
)

// walkState has one field of every kind a walk visits.
type walkState struct {
	u8   uint8
	i8   int8
	u16  uint16
	u32  uint32
	i32  int32
	u64  uint64
	n    int
	f    float64
	b    bool
	idx  uint32
	cur  int
	u8s  []uint8
	i8s  []int8
	u32s []uint32
	u64s []uint64
	bs   []bool
	recs []walkRec
}

type walkRec struct {
	a uint32
	b uint16
	c bool
}

func newWalkState(fill bool) *walkState {
	s := &walkState{
		u8s: make([]uint8, 5), i8s: make([]int8, 3), u32s: make([]uint32, 4),
		u64s: make([]uint64, 2), bs: make([]bool, 7), recs: make([]walkRec, 300),
	}
	if fill {
		s.u8, s.i8, s.u16, s.u32, s.i32, s.u64 = 1, -2, 3, 4, -5, 6
		s.n, s.f, s.b, s.idx, s.cur = -7, 8.5, true, 9, 2
		for i := range s.recs {
			s.recs[i] = walkRec{uint32(i), uint16(i * 3), i%2 == 0}
		}
		s.u8s[1], s.i8s[2], s.u32s[3], s.u64s[1], s.bs[4] = 10, -11, 12, 13, true
	}
	return s
}

func (s *walkState) walk(w Walker) {
	w.Begin("walk", 1)
	w.U8(&s.u8, 1)
	w.I8(&s.i8, -1)
	w.U16(&s.u16, 1)
	w.U32(&s.u32, 1)
	w.I32(&s.i32, -1)
	w.U64(&s.u64, 1)
	w.Int(&s.n, 1)
	w.F64(&s.f, 0.5)
	w.Bool(&s.b, true)
	w.Index(&s.idx, 16, "index")
	w.IntIn(&s.cur, -1, -1, 4, "cursor")
	w.Begin("slices", 2)
	w.U8s(s.u8s, 1)
	w.I8s(s.i8s, -1)
	w.U32s(s.u32s, 1)
	w.U64s(s.u64s, 1)
	w.Bools(s.bs, true)
	w.End()
	w.Len(len(s.recs), "records")
	r := Records(w, s.recs, 7)
	for i := range r.N {
		e := &s.recs[i]
		r.U32(&e.a)
		r.U16(&e.b)
		r.Bool(&e.c)
	}
	w.End()
}

func (s *walkState) encode() []byte {
	e := NewEncoder()
	s.walk(e.Walker())
	return bytes.Clone(e.Blob())
}

// TestSizerCountsWhatEncodeAppends: a count walk adds up exactly the
// bytes an encode walk appends, header included, writes no state, and
// counts Snapshot-style walks through the Sizer's Encoder the same way.
func TestSizerCountsWhatEncodeAppends(t *testing.T) {
	s := newWalkState(true)
	blob := s.encode()

	var sz Sizer
	s.walk(sz.Walker())
	if sz.Len() != len(blob) {
		t.Fatalf("counted %d bytes, encoded %d", sz.Len(), len(blob))
	}
	if again := s.encode(); !bytes.Equal(again, blob) {
		t.Fatal("a count walk changed the state it walked")
	}
	sz.Reset()
	s.walk(sz.Encoder().Walker())
	s.walk(sz.Walker())
	if want := 2*len(blob) - headerLen; sz.Len() != want {
		t.Fatalf("two walks after Reset counted %d bytes, want %d", sz.Len(), want)
	}
}

// TestZeroWalkerStillResets: adding the count mode leaves the zero
// Walker a reset.
func TestZeroWalkerStillResets(t *testing.T) {
	s := newWalkState(true)
	s.walk(Walker{})
	want := newWalkState(false)
	want.walk(Fresh())
	if !bytes.Equal(s.encode(), want.encode()) {
		t.Fatal("the zero Walker did not reset to the construction values Fresh sets")
	}
	if s.u8 != 1 || s.cur != -1 || s.u8s[0] != 1 || s.recs[5] != (walkRec{}) {
		t.Fatalf("reset state %+v", *s)
	}
}

// TestGrowAllocatesOnce: an Encoder grown to a counted blob encodes it
// without growing again.
func TestGrowAllocatesOnce(t *testing.T) {
	s := newWalkState(true)
	var sz Sizer
	s.walk(sz.Walker())
	var e Encoder
	e.Reset()
	e.Grow(sz.Len())
	before := cap(e.buf)
	s.walk(e.Walker())
	if cap(e.buf) != before || len(e.Blob()) != sz.Len() {
		t.Fatalf("capacity %d → %d for a %d-byte blob counted as %d", before, cap(e.buf), len(e.Blob()), sz.Len())
	}
	if allocs := testing.AllocsPerRun(10, func() {
		sz.Reset()
		s.walk(sz.Walker())
		e.Reset()
		e.Grow(sz.Len())
		s.walk(e.Walker())
	}); allocs != 0 {
		t.Fatalf("%v allocs per counted encode into a grown Encoder, want 0", allocs)
	}
}

// TestSizerRefusesDirectWrites: a Snapshot that writes to the Encoder
// instead of walking would be miscounted, so Len panics.
func TestSizerRefusesDirectWrites(t *testing.T) {
	var sz Sizer
	sz.Encoder().U32(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Len after a direct write did not panic")
		}
	}()
	sz.Len()
}

package checkpoint

import "encoding/binary"

// Walker visits a predictor's dynamic state in one declared order and
// runs in one of three modes: encode (append every visited value to an
// Encoder), decode (overwrite every visited value from a Decoder) or
// reset (set every visited value to its construction value). Each state
// type declares its state once, as a walk; Snapshot, Restore and Reset
// are that walk in the three modes, so a field cannot be snapshotted
// but forgotten by Reset, or restored in a different order than it was
// written.
//
// A walk visits typed scalars (U8 … Bool) and slices of scalars (U8s …
// Bools), each with its construction value, and slices of fixed-layout
// records through Records. Length visits (Len) and index visits (Index,
// IntIn) are range-checked when decoding, failing through the Decoder's
// sticky error; Failf reports any other decoded value outside its
// domain. A failed decode leaves the state unspecified until a reset.
//
// The zero Walker resets; Encoder.Walker and Decoder.Walker return the
// other two, and Fresh the reset a constructor runs. A Walker is passed
// by value, so a reset walk allocates nothing.
type Walker struct {
	enc *Encoder
	dec *Decoder
	// fresh skips the zero fills of a reset: the walk runs over storage
	// just allocated, which is already zero.
	fresh bool
}

// Fresh returns the reset a constructor runs over the state it has just
// allocated: every nonzero construction value is set, and zero fills
// are skipped, so building a predictor (say, to read its name and
// budget) touches no more of its tables than it must.
func Fresh() Walker { return Walker{fresh: true} }

// Walker returns a walker that appends the visited state to e.
func (e *Encoder) Walker() Walker { return Walker{enc: e} }

// Walker returns a walker that overwrites the visited state from d.
func (d *Decoder) Walker() Walker { return Walker{dec: d} }

// Failf sticks a domain error onto the decoder; it does nothing when
// encoding or resetting, where the state is the program's own.
func (w Walker) Failf(format string, args ...any) {
	if w.dec != nil {
		w.dec.fail(format, args...)
	}
}

// Begin opens a named section. Decoding accepts only the declared
// version: a newer one is refused as Decoder.Open refuses it, and an
// older one — a layout this binary no longer reads — is refused too, so
// a blob from before a layout change cold-starts instead of being
// misread.
func (w Walker) Begin(name string, version uint16) {
	switch {
	case w.enc != nil:
		w.enc.Begin(name, version)
	case w.dec != nil:
		if v := w.dec.Open(name, version); w.dec.err == nil && v != version {
			w.dec.fail("section %q written under version %d, but this binary reads only version %d; the blob predates the current layout, so the run starts cold", name, v, version)
		}
	}
}

// End closes the innermost section.
func (w Walker) End() {
	switch {
	case w.enc != nil:
		w.enc.End()
	case w.dec != nil:
		w.dec.Close()
	}
}

// Len visits a structural length (a table count, a ring capacity) as a
// 32-bit value. Decoding must find exactly n: anything else means the
// blob describes a different configuration.
func (w Walker) Len(n int, what string) {
	switch {
	case w.enc != nil:
		w.enc.U32(uint32(n))
	case w.dec != nil:
		if got := int(w.dec.U32()); w.dec.err == nil && got != n {
			w.dec.fail("%s is %d, this configuration needs %d (checkpoint does not match the predictor configuration)", what, got, n)
		}
	}
}

// Index visits a 32-bit table index whose decoded value must lie in
// [0, n). Its construction value is 0.
func (w Walker) Index(v *uint32, n int, what string) {
	switch {
	case w.enc != nil:
		w.enc.U32(*v)
	case w.dec != nil:
		if x := w.dec.U32(); w.dec.err == nil {
			if uint64(x) >= uint64(n) {
				w.dec.fail("%s %d out of range [0,%d)", what, x, n)
				return
			}
			*v = x
		}
	default:
		*v = 0
	}
}

// IntIn visits a cursor or index stored as 64 bits whose decoded value
// must lie in [lo, hi).
func (w Walker) IntIn(v *int, init, lo, hi int, what string) {
	switch {
	case w.enc != nil:
		w.enc.Int(*v)
	case w.dec != nil:
		if x := w.dec.Int(); w.dec.err == nil {
			if x < lo || x >= hi {
				w.dec.fail("%s %d out of range [%d,%d)", what, x, lo, hi)
				return
			}
			*v = x
		}
	default:
		*v = init
	}
}

// --- scalars and slices of scalars, each with its construction value ---

// visit moves one scalar in the walk's direction, or sets it to init.
func visit[T any](w Walker, v *T, init T, put func(*Encoder, T), get func(*Decoder) T) {
	switch {
	case w.enc != nil:
		put(w.enc, *v)
	case w.dec != nil:
		*v = get(w.dec)
	default:
		*v = init
	}
}

// visitSlice moves a length-prefixed slice (decoding requires the stored
// length to equal len(s)), or fills it with init.
func visitSlice[T comparable](w Walker, s []T, init T, put func(*Encoder, []T), get func(*Decoder, []T)) {
	switch {
	case w.enc != nil:
		put(w.enc, s)
	case w.dec != nil:
		get(w.dec, s)
	default:
		fill(s, init, w.fresh)
	}
}

// U8 visits a byte.
func (w Walker) U8(v *uint8, init uint8) { visit(w, v, init, (*Encoder).U8, (*Decoder).U8) }

// I8 visits a signed byte.
func (w Walker) I8(v *int8, init int8) { visit(w, v, init, (*Encoder).I8, (*Decoder).I8) }

// U16 visits a 16-bit value.
func (w Walker) U16(v *uint16, init uint16) { visit(w, v, init, (*Encoder).U16, (*Decoder).U16) }

// U32 visits a 32-bit value.
func (w Walker) U32(v *uint32, init uint32) { visit(w, v, init, (*Encoder).U32, (*Decoder).U32) }

// I32 visits a signed 32-bit value.
func (w Walker) I32(v *int32, init int32) { visit(w, v, init, (*Encoder).I32, (*Decoder).I32) }

// U64 visits a 64-bit value.
func (w Walker) U64(v *uint64, init uint64) { visit(w, v, init, (*Encoder).U64, (*Decoder).U64) }

// Int visits a machine int stored as 64 bits.
func (w Walker) Int(v *int, init int) { visit(w, v, init, (*Encoder).Int, (*Decoder).Int) }

// F64 visits a float64 by bit pattern.
func (w Walker) F64(v *float64, init float64) { visit(w, v, init, (*Encoder).F64, (*Decoder).F64) }

// Bool visits a bool stored as one byte.
func (w Walker) Bool(v *bool, init bool) { visit(w, v, init, (*Encoder).Bool, (*Decoder).Bool) }

// U8s visits a uint8 slice.
func (w Walker) U8s(s []uint8, init uint8) {
	visitSlice(w, s, init, (*Encoder).U8s, (*Decoder).U8sInto)
}

// I8s visits an int8 slice.
func (w Walker) I8s(s []int8, init int8) { visitSlice(w, s, init, (*Encoder).I8s, (*Decoder).I8sInto) }

// U32s visits a uint32 slice.
func (w Walker) U32s(s []uint32, init uint32) {
	visitSlice(w, s, init, (*Encoder).U32s, (*Decoder).U32sInto)
}

// U64s visits a uint64 slice.
func (w Walker) U64s(s []uint64, init uint64) {
	visitSlice(w, s, init, (*Encoder).U64s, (*Decoder).U64sInto)
}

// Bools visits a bool slice.
func (w Walker) Bools(s []bool, init bool) {
	visitSlice(w, s, init, (*Encoder).Bools, (*Decoder).BoolsInto)
}

// fill sets every element of s to v, skipping zero fills of fresh
// storage. Zero fills go through clear (a memclr) and others through
// doubling copies (memmoves): an element-by-element loop is several
// times slower on the large tables a reset walks.
func fill[T comparable](s []T, v T, fresh bool) {
	var zero T
	if v == zero {
		if !fresh {
			clear(s)
		}
		return
	}
	if len(s) == 0 {
		return
	}
	s[0] = v
	for n := 1; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}

// --- records ---

// Records visits s as a block of fixed-layout records of size encoded
// bytes each, with no length prefix (declare one with Len). Resetting
// clears s (unless it is fresh): records construct as their zero value. Encoding and
// decoding return a Rec over the block, which the caller drains in one
// loop that visits every field of every record, in order:
//
//	r := checkpoint.Records(w, s, 6)
//	for i := range r.N {
//		e := &s[i]
//		r.U32(&e.key)
//		r.U16(&e.iter)
//	}
//
// The mode is decided once per block, not per field: the Rec methods
// are small enough to inline into that loop, so walking a large table
// costs about what a hand-written encoder or decoder loop does. The
// Rec must be drained before the walk visits anything else.
func Records[T any](w Walker, s []T, size int) Rec {
	switch {
	case w.enc != nil:
		return Rec{N: len(s), b: w.enc.reserve(len(s) * size)}
	case w.dec != nil:
		if b := w.dec.take(len(s) * size); b != nil {
			return Rec{N: len(s), b: b, dec: true}
		}
		return Rec{}
	}
	if !w.fresh {
		clear(s)
	}
	return Rec{}
}

// Rec is the field cursor of one Records block. N is the number of
// records to visit: 0 when resetting or after a decode failure.
type Rec struct {
	N   int
	b   []byte
	dec bool
}

// U8 moves one byte field.
func (r *Rec) U8(v *uint8) {
	if r.dec {
		*v = r.b[0]
	} else {
		r.b[0] = *v
	}
	r.b = r.b[1:]
}

// Bool moves one bool field (one byte).
func (r *Rec) Bool(v *bool) {
	if r.dec {
		*v = r.b[0] != 0
	} else if *v {
		r.b[0] = 1
	} else {
		r.b[0] = 0
	}
	r.b = r.b[1:]
}

// U16 moves one 16-bit field.
func (r *Rec) U16(v *uint16) {
	if r.dec {
		*v = binary.LittleEndian.Uint16(r.b)
	} else {
		binary.LittleEndian.PutUint16(r.b, *v)
	}
	r.b = r.b[2:]
}

// U32 moves one 32-bit field.
func (r *Rec) U32(v *uint32) {
	if r.dec {
		*v = binary.LittleEndian.Uint32(r.b)
	} else {
		binary.LittleEndian.PutUint32(r.b, *v)
	}
	r.b = r.b[4:]
}

// Word moves one 32-bit field and reports whether it was decoded, for
// a record packed into one word: the caller packs the word from its
// fields, and unpacks the fields from it only after a decode.
func (r *Rec) Word(v *uint32) (decoded bool) {
	r.U32(v)
	return r.dec
}

// I32 moves one signed 32-bit field.
func (r *Rec) I32(v *int32) {
	if r.dec {
		*v = int32(binary.LittleEndian.Uint32(r.b))
	} else {
		binary.LittleEndian.PutUint32(r.b, uint32(*v))
	}
	r.b = r.b[4:]
}

// U64 moves one 64-bit field.
func (r *Rec) U64(v *uint64) {
	if r.dec {
		*v = binary.LittleEndian.Uint64(r.b)
	} else {
		binary.LittleEndian.PutUint64(r.b, *v)
	}
	r.b = r.b[8:]
}

// Int moves one machine int field, stored as 64 bits.
func (r *Rec) Int(v *int) {
	if r.dec {
		*v = int(binary.LittleEndian.Uint64(r.b))
	} else {
		binary.LittleEndian.PutUint64(r.b, uint64(*v))
	}
	r.b = r.b[8:]
}

// Package checkpoint is the versioned binary encoding under predictor
// state snapshots: a length-prefixed section stream with the same
// schema discipline the result store applies to its records — a blob
// is read only under a version the reader understands, and anything
// else is refused with a clear error, never misread.
//
// A blob is a fixed header (magic, format version) followed by
// sections. Each section carries a name, a version and a byte length,
// so a reader can verify it is looking at the state it expects and
// detect truncation or corruption without trusting any length it has
// not bounds-checked. Writers nest sections freely (a composed
// predictor delegates a section to each component).
//
// Predictor and simulator state is not written against the Encoder and
// Decoder directly: each state type declares it once as a Walker walk
// (walk.go), and snapshot, restore and reset are that walk's three
// modes. A walk reads exactly the section version it declares, so a
// layout change bumps the version and older blobs cold-start.
//
// The Decoder is total over arbitrary bytes: every primitive is
// bounds-checked, every slice length is validated against both the
// remaining payload and the caller's expected destination size, and the
// first failure sticks — subsequent reads return zero values and the
// caller checks Err once at the end. Nothing in this package panics on
// malformed input (FuzzCheckpointDecode holds it to that).
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// FormatVersion is the blob-level encoding version this binary writes
// and the newest it will read.
const FormatVersion = 1

// magic identifies a checkpoint blob ("BPCK" — branch predictor
// checkpoint).
const magic = "BPCK"

// Encoder builds a checkpoint blob. Construct one with NewEncoder, or
// Reset a zero or used Encoder: either writes the header. One Encoder
// reused through Reset builds blob after blob in the same buffer, so
// once it has grown to a blob's size, encoding allocates nothing.
type Encoder struct {
	buf []byte
	// open holds the byte offsets of the unpatched length fields of the
	// currently open sections (a stack, for nesting).
	open []int
	// trailer counts the bytes announced by Trailer, which follow the
	// blob instead of sitting in buf; trailerAt is len(buf) at Trailer.
	trailer, trailerAt int
}

// NewEncoder starts a blob: magic plus format version.
func NewEncoder() *Encoder {
	e := &Encoder{buf: make([]byte, 0, 1024)}
	e.Reset()
	return e
}

// Reset discards the blob being built, keeping the buffer's capacity,
// and starts a new one. It overwrites the bytes an earlier Blob call
// returned.
func (e *Encoder) Reset() {
	e.buf = append(e.buf[:0], magic...)
	e.open = e.open[:0]
	e.trailer, e.trailerAt = 0, 0
	e.U16(FormatVersion)
}

// Blob returns the finished blob. Every Begin must have been closed by
// its End first. The bytes stay valid until the next Reset.
func (e *Encoder) Blob() []byte {
	if len(e.open) > 0 {
		panic(fmt.Sprintf("checkpoint: Blob with %d unclosed sections", len(e.open)))
	}
	return e.buf
}

// Begin opens a section: name, version, and a length field backpatched
// by End. Sections nest.
func (e *Encoder) Begin(name string, version uint16) {
	e.String(name)
	e.U16(version)
	e.open = append(e.open, len(e.buf))
	e.U32(0) // length, patched by End
}

// End closes the innermost open section, backpatching its byte length.
func (e *Encoder) End() {
	if len(e.open) == 0 {
		panic("checkpoint: End without Begin")
	}
	if e.trailer != 0 && len(e.buf) != e.trailerAt {
		panic("checkpoint: write after Trailer")
	}
	at := e.open[len(e.open)-1]
	e.open = e.open[:len(e.open)-1]
	n := len(e.buf) + e.trailer - at - 4
	e.buf[at+0] = byte(n)
	e.buf[at+1] = byte(n >> 8)
	e.buf[at+2] = byte(n >> 16)
	e.buf[at+3] = byte(n >> 24)
}

// --- primitives (little-endian, fixed width) ---

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a 16-bit value.
func (e *Encoder) U16(v uint16) { e.buf = append(e.buf, byte(v), byte(v>>8)) }

// U32 appends a 32-bit value.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a 64-bit value.
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I8 appends a signed byte.
func (e *Encoder) I8(v int8) { e.U8(uint8(v)) }

// I32 appends a signed 32-bit value.
func (e *Encoder) I32(v int32) { e.U32(uint32(v)) }

// I64 appends a signed 64-bit value.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends a machine int as 64 bits.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Trailer appends the length prefix of an n-byte slice that the caller
// writes right after the blob, in place of Bytes: every section End
// closes afterwards counts the n bytes, so the blob followed by the
// slice is byte for byte what Bytes would have built, without copying
// the slice. Only End may follow a Trailer.
func (e *Encoder) Trailer(n int) {
	e.U32(uint32(n))
	e.trailer, e.trailerAt = n, len(e.buf)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// U8s appends a length-prefixed uint8 slice.
func (e *Encoder) U8s(v []uint8) { e.Bytes(v) }

// I8s appends a length-prefixed int8 slice.
func (e *Encoder) I8s(v []int8) {
	e.U32(uint32(len(v)))
	b := e.reserve(len(v))
	for i, x := range v {
		b[i] = byte(x)
	}
}

// U32s appends a length-prefixed uint32 slice.
func (e *Encoder) U32s(v []uint32) {
	e.U32(uint32(len(v)))
	b := e.reserve(4 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
}

// U64s appends a length-prefixed uint64 slice.
func (e *Encoder) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	b := e.reserve(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
}

// Bools appends a length-prefixed bool slice (one byte per element).
func (e *Encoder) Bools(v []bool) {
	e.U32(uint32(len(v)))
	b := e.reserve(len(v))
	for i, x := range v {
		if x {
			b[i] = 1
		} else {
			b[i] = 0
		}
	}
}

// reserve extends the blob by n bytes, growing the buffer at most once,
// and returns them for the caller to fill before the next write.
func (e *Encoder) reserve(n int) []byte {
	e.buf = slices.Grow(e.buf, n)
	at := len(e.buf)
	e.buf = e.buf[:at+n]
	return e.buf[at:]
}

// Decoder reads a checkpoint blob. Errors are sticky: after the first
// failure every read returns a zero value, so restore code reads
// straight through and checks Err once.
type Decoder struct {
	data []byte
	off  int
	err  error
	// end holds the byte offsets where the currently open sections end.
	end []int
}

// NewDecoder opens a blob, verifying the header. A blob written by a
// newer binary (format version above FormatVersion) is refused here,
// mirroring the result store's schema discipline.
func NewDecoder(data []byte) *Decoder {
	d := &Decoder{data: data}
	if len(data) < len(magic)+2 {
		d.fail("blob too short for header (%d bytes)", len(data))
		return d
	}
	if string(data[:len(magic)]) != magic {
		d.fail("bad magic %q (not a checkpoint blob)", data[:len(magic)])
		return d
	}
	d.off = len(magic)
	if v := d.U16(); v > FormatVersion {
		d.fail("blob written under checkpoint format %d, but this binary understands at most format %d; regenerate it with this binary or read it with the newer one", v, FormatVersion)
	}
	return d
}

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// limit is the byte offset reads must stay under: the innermost open
// section's end, or the blob end.
func (d *Decoder) limit() int {
	if n := len(d.end); n > 0 {
		return d.end[n-1]
	}
	return len(d.data)
}

// take returns the next n bytes, or nil with a sticky error on
// truncation.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > d.limit() {
		d.fail("truncated: need %d bytes at offset %d, have %d", n, d.off, d.limit()-d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// Open reads a section header, verifying the name matches and the
// version is readable (refuse-newer, mirroring the store's
// migrateRecord), and returns the stored version so the caller can
// apply per-section migrations.
func (d *Decoder) Open(name string, maxVersion uint16) uint16 {
	got := d.String()
	if d.err != nil {
		return 0
	}
	if got != name {
		d.fail("section %q where %q was expected (blob does not describe this state)", got, name)
		return 0
	}
	v := d.U16()
	if d.err == nil && v > maxVersion {
		d.fail("section %q written under version %d, but this binary understands at most version %d; regenerate the checkpoint with this binary or read it with the newer one", name, v, maxVersion)
		return 0
	}
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if d.off+n > d.limit() {
		d.fail("section %q claims %d bytes but only %d remain", name, n, d.limit()-d.off)
		return 0
	}
	d.end = append(d.end, d.off+n)
	return v
}

// Close finishes the innermost open section. Any unread remainder is
// skipped (room for forward-compatible additions within a version);
// reading past the section end has already stuck an error.
func (d *Decoder) Close() {
	if len(d.end) == 0 {
		if d.err == nil {
			d.fail("Close without Open")
		}
		return
	}
	end := d.end[len(d.end)-1]
	d.end = d.end[:len(d.end)-1]
	if d.err == nil {
		d.off = end
	}
}

// --- primitives ---

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a 16-bit value.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 reads a 32-bit value.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a 64-bit value.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I8 reads a signed byte.
func (d *Decoder) I8() int8 { return int8(d.U8()) }

// I32 reads a signed 32-bit value.
func (d *Decoder) I32() int32 { return int32(d.U32()) }

// I64 reads a signed 64-bit value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads a machine int stored as 64 bits.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 by bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// sliceLen reads and bounds-checks a length prefix against the bytes
// actually remaining (elemSize bytes per element), so corrupt lengths
// fail instead of driving huge allocations.
func (d *Decoder) sliceLen(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n*elemSize > d.limit()-d.off {
		d.fail("slice claims %d elements but only %d bytes remain", n, d.limit()-d.off)
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice in place: the result is a
// view of the blob, not a copy, so it stays valid as long as the blob
// does and must not be written to.
func (d *Decoder) Bytes() []byte {
	return d.take(d.sliceLen(1))
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.sliceLen(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// fixedInto checks a stored slice length against the destination the
// caller owns; a mismatch means the blob describes a differently-sized
// configuration.
func (d *Decoder) fixedInto(what string, stored, want int) bool {
	if d.err != nil {
		return false
	}
	if stored != want {
		d.fail("%s holds %d elements, this configuration needs %d (checkpoint does not match the predictor configuration)", what, stored, want)
		return false
	}
	return true
}

// U8sInto fills dst from a length-prefixed uint8 slice; the stored
// length must equal len(dst).
func (d *Decoder) U8sInto(dst []uint8) {
	n := d.sliceLen(1)
	if !d.fixedInto("uint8 slice", n, len(dst)) {
		return
	}
	copy(dst, d.take(n))
}

// I8sInto fills dst from a length-prefixed int8 slice.
func (d *Decoder) I8sInto(dst []int8) {
	n := d.sliceLen(1)
	if !d.fixedInto("int8 slice", n, len(dst)) {
		return
	}
	b := d.take(n)
	for i := range dst {
		dst[i] = int8(b[i])
	}
}

// U32sInto fills dst from a length-prefixed uint32 slice.
func (d *Decoder) U32sInto(dst []uint32) {
	n := d.sliceLen(4)
	if !d.fixedInto("uint32 slice", n, len(dst)) {
		return
	}
	b := d.take(4 * n)
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
}

// U64sInto fills dst from a length-prefixed uint64 slice.
func (d *Decoder) U64sInto(dst []uint64) {
	n := d.sliceLen(8)
	if !d.fixedInto("uint64 slice", n, len(dst)) {
		return
	}
	b := d.take(8 * n)
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// BoolsInto fills dst from a length-prefixed bool slice.
func (d *Decoder) BoolsInto(dst []bool) {
	n := d.sliceLen(1)
	if !d.fixedInto("bool slice", n, len(dst)) {
		return
	}
	b := d.take(n)
	for i := range dst {
		dst[i] = b[i] != 0
	}
}

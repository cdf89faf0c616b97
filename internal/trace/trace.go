// Package trace defines the branch-trace model used by the simulator: a
// sequence of conditional-branch records on the correct execution path,
// each carrying its PC, its outcome, and the number of non-branch micro-ops
// preceding it (so that per-kilo-instruction metrics can be computed, as in
// the CBP-3 framework the paper uses). A trace is materialised in memory
// as a table of its static branches plus one 16-bit word per dynamic
// branch (see Trace), built by a Builder and decoded back into Branch
// blocks by a Cursor, the simulator's one way to read it. A compact
// binary encoding (BPT1: Write, Read) stores a trace on disk; Read sizes
// what it keeps by the branches it decodes, not by the count in the
// header.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"sort"

	"repro/internal/bitutil"
)

// Branch is one dynamic conditional branch on the correct path.
type Branch struct {
	// PC is the branch instruction address.
	PC uint64
	// Taken is the architectural outcome.
	Taken bool
	// OpsBefore is the number of non-branch micro-ops that executed since
	// the previous branch (the branch itself counts as one more µop).
	OpsBefore uint8
}

// Trace is a branch trace held in memory. Its storage is private: a
// Builder (or FromBranches) makes one, and Len, Branches, Prefix and a
// Cursor read it. A Trace with only Name and Category set is empty.
//
// A trace is stored in one of two forms, chosen by its content while it
// is built. The compact form holds a table of the trace's distinct
// (PC, OpsBefore) pairs and one 16-bit word per branch: the pair's
// index (15 bits) above the outcome bit. Every built-in trace fits it,
// at 2 bytes a branch plus 32 bytes a pair. A trace with more than
// maxPairs pairs takes the wide form, 16 bytes a branch, the branches
// themselves.
type Trace struct {
	// Name identifies the benchmark (e.g. "INT01").
	Name string
	// Category is the benchmark class (e.g. "INT").
	Category string

	// table holds the compact form's pairs, each as two branches: the
	// not-taken one at 2*pair and the taken one at 2*pair+1. words holds
	// one pair<<1|taken per branch, which indexes table directly.
	table []Branch
	words []uint16
	// wide holds the wide form's branches; nil in the compact form.
	wide []Branch
}

// maxPairs is the number of (PC, OpsBefore) pairs a compact word can
// index.
const maxPairs = 1 << 15

// Len returns the number of branches in the trace.
func (t *Trace) Len() int { return len(t.words) + len(t.wide) }

// Branches iterates over the trace's branches in order.
func (t *Trace) Branches() iter.Seq[Branch] {
	return func(yield func(Branch) bool) {
		for i := range t.Len() {
			var b Branch
			if t.wide != nil {
				b = t.wide[i]
			} else {
				b = t.table[t.words[i]]
			}
			if !yield(b) {
				return
			}
		}
	}
}

// Prefix returns a view of the first n branches of t (all of them when
// n is at least Len, none when it is below 1) that shares t's storage,
// with t's Name and Category.
func (t *Trace) Prefix(n int) *Trace {
	n = max(0, min(n, t.Len()))
	v := *t
	if v.wide != nil {
		v.wide = v.wide[:n]
	} else {
		v.words = v.words[:n]
	}
	return &v
}

// decode writes the branches from position i on into dst and returns
// how many it wrote: len(dst), or fewer at the end of the trace.
func (t *Trace) decode(dst []Branch, i int) int {
	if t.wide != nil {
		return copy(dst, t.wide[i:])
	}
	words := t.words[i:]
	if len(words) > len(dst) {
		words = words[:len(dst)]
	}
	dst = dst[:len(words)]
	table := t.table
	for k, w := range words {
		dst[k] = table[w]
	}
	return len(words)
}

// MicroOps returns the total micro-op count of the trace (branches plus
// the ops preceding each).
func (t *Trace) MicroOps() uint64 {
	var n uint64
	for b := range t.Branches() {
		n += uint64(b.OpsBefore) + 1
	}
	return n
}

// A Builder appends branches to a new trace, in the compact form until
// the trace holds more (PC, OpsBefore) pairs than a word can index and
// in the wide form from then on. Generators intern each static branch
// once and Emit its dynamic instances by index; Add takes whole
// branches and interns them itself.
type Builder struct {
	t Trace
	// slots is an open-addressed index of the pairs in t.table (pair
	// index + 1, 0 for an empty slot), at most half full. The wide form
	// drops it.
	slots []uint16
}

// NewBuilder starts a trace with room for sizeHint branches.
func NewBuilder(name, category string, sizeHint int) *Builder {
	return &Builder{t: Trace{Name: name, Category: category, words: make([]uint16, 0, max(sizeHint, 0))}}
}

// Intern returns the index of the static branch (pc, opsBefore), adding
// it to the trace's table if it is new. Emit takes the index.
func (b *Builder) Intern(pc uint64, opsBefore uint8) int {
	pairs := len(b.t.table) / 2
	if b.t.wide != nil {
		// The wide form stores whole branches: the table only serves
		// Emit, and a repeated pair costs one entry.
		b.t.table = append(b.t.table, Branch{PC: pc, OpsBefore: opsBefore}, Branch{PC: pc, Taken: true, OpsBefore: opsBefore})
		return pairs
	}
	if 2*(pairs+1) > len(b.slots) && pairs < maxPairs {
		b.rehash(max(16, 2*len(b.slots)))
	}
	mask := len(b.slots) - 1
	h := slot(pc, opsBefore, mask)
	for ; b.slots[h] != 0; h = (h + 1) & mask {
		id := int(b.slots[h] - 1)
		if p := b.t.table[2*id]; p.PC == pc && p.OpsBefore == opsBefore {
			return id
		}
	}
	id := pairs
	b.t.table = append(b.t.table, Branch{PC: pc, OpsBefore: opsBefore}, Branch{PC: pc, Taken: true, OpsBefore: opsBefore})
	if id == maxPairs {
		b.widen()
	} else {
		b.slots[h] = uint16(id + 1)
	}
	return id
}

// rehash rebuilds the slot index at size n, a power of two.
func (b *Builder) rehash(n int) {
	b.slots = make([]uint16, n)
	for id := range len(b.t.table) / 2 {
		p := b.t.table[2*id]
		h := slot(p.PC, p.OpsBefore, n-1)
		for b.slots[h] != 0 {
			h = (h + 1) & (n - 1)
		}
		b.slots[h] = uint16(id + 1)
	}
}

// slot is where the probe for the pair (pc, opsBefore) starts in a slot
// index of mask+1 slots.
func slot(pc uint64, opsBefore uint8, mask int) int {
	return int(bitutil.Mix64(pc^uint64(opsBefore)<<56)) & mask
}

// widen moves the trace to the wide form.
func (b *Builder) widen() {
	wide := make([]Branch, len(b.t.words), max(cap(b.t.words), len(b.t.words)+1))
	b.t.decode(wide, 0)
	b.t.wide, b.t.words, b.slots = wide, nil, nil
}

// Emit appends one branch of the interned static branch id.
func (b *Builder) Emit(id int, taken bool) {
	w := id<<1 | int(bitutil.B2u(taken))
	if b.t.wide != nil {
		b.t.wide = append(b.t.wide, b.t.table[w])
		return
	}
	b.t.words = append(b.t.words, uint16(w))
}

// Add appends one branch.
func (b *Builder) Add(br Branch) {
	if b.t.wide != nil {
		b.t.wide = append(b.t.wide, br)
		return
	}
	b.Emit(b.Intern(br.PC, br.OpsBefore), br.Taken)
}

// Trace returns the trace built so far. The Builder must not be used
// after.
func (b *Builder) Trace() *Trace {
	t := b.t
	if t.wide != nil {
		t.table = nil
	}
	return &t
}

// FromBranches builds a trace of the given branches.
func FromBranches(name, category string, branches []Branch) *Trace {
	b := NewBuilder(name, category, len(branches))
	for _, br := range branches {
		b.Add(br)
	}
	return b.Trace()
}

// Cursor reads a trace in blocks: Seek re-points it at a trace and
// rewinds, so one Cursor serves every run of a pooled simulation. The
// zero value is exhausted.
type Cursor struct {
	t *Trace
	i int
}

// Seek points the cursor at the start of t (nil empties the cursor).
func (c *Cursor) Seek(t *Trace) { c.t, c.i = t, 0 }

// NextBatch fills dst with up to len(dst) branches, decoded from the
// trace's words (or copied from a wide trace), and returns how many it
// wrote (0 at the end of the trace).
func (c *Cursor) NextBatch(dst []Branch) int {
	if c.t == nil {
		return 0
	}
	n := c.t.decode(dst, c.i)
	c.i += n
	return n
}

// Len returns the number of branches remaining before the cursor, so a
// resume can reject a checkpoint claiming a longer already-simulated
// prefix than the trace holds before consuming anything.
func (c *Cursor) Len() int {
	if c.t == nil {
		return 0
	}
	return c.t.Len() - c.i
}

// Skip advances the cursor by up to n branches without yielding them
// (O(1) — the resume path of a checkpointed simulation) and returns
// how many were skipped.
func (c *Cursor) Skip(n int) int {
	if c.t == nil || n <= 0 {
		return 0
	}
	if rem := c.t.Len() - c.i; n > rem {
		n = rem
	}
	c.i += n
	return n
}

// Binary format:
//
//	magic "BPT1" | name len+bytes | category len+bytes | branch count |
//	per branch: uvarint(pcDelta zigzag) | byte(flags: bit0 taken) | byte(opsBefore)
//
// PCs are delta-encoded against the previous branch PC because real and
// synthetic traces alike have strong PC locality.
const magic = "BPT1"

var (
	// ErrBadMagic reports a stream that is not a trace file.
	ErrBadMagic = errors.New("trace: bad magic")
)

// Write encodes the trace to w.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	writeString := func(s string) error {
		var lenBuf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(lenBuf[:], uint64(len(s)))
		if _, err := bw.Write(lenBuf[:n]); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeString(t.Name); err != nil {
		return err
	}
	if err := writeString(t.Category); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(t.Len()))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	prev := uint64(0)
	for b := range t.Branches() {
		delta := int64(b.PC) - int64(prev)
		n := binary.PutVarint(buf[:], delta)
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		flags := byte(0)
		if b.Taken {
			flags |= 1
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		if err := bw.WriteByte(b.OpsBefore); err != nil {
			return err
		}
		prev = b.PC
	}
	return bw.Flush()
}

// readHint bounds the branches Read makes room for up front: a header's
// count is a claim, and storage grows with the branches actually read.
const readHint = 1 << 16

// Read decodes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, ErrBadMagic
	}
	readString := func() (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("trace: unreasonable string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	name, err := readString()
	if err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	category, err := readString()
	if err != nil {
		return nil, fmt.Errorf("trace: reading category: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("trace: unreasonable branch count %d", count)
	}
	b := NewBuilder(name, category, int(min(count, readHint)))
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: branch %d pc: %w", i, err)
		}
		pc := uint64(int64(prev) + delta)
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: branch %d flags: %w", i, err)
		}
		ops, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: branch %d ops: %w", i, err)
		}
		b.Add(Branch{PC: pc, Taken: flags&1 != 0, OpsBefore: ops})
		prev = pc
	}
	return b.Trace(), nil
}

// Hash returns a content hash of the trace's branch sequence (FNV-1a
// over PC, outcome and µop count of every branch). Two traces hash
// equal exactly when they drive a predictor identically, which is what
// checkpoint caches key on — name and category are presentation.
func (t *Trace) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	byte1 := func(b byte) {
		h = (h ^ uint64(b)) * prime64
	}
	for b := range t.Branches() {
		pc := b.PC
		for i := 0; i < 8; i++ {
			byte1(byte(pc))
			pc >>= 8
		}
		if b.Taken {
			byte1(1)
		} else {
			byte1(0)
		}
		byte1(b.OpsBefore)
	}
	return h
}

// Stats summarises a trace.
type Stats struct {
	Branches       int
	MicroOps       uint64
	TakenFraction  float64
	StaticBranches int
	// Top10Coverage is the fraction of dynamic branches contributed by
	// the 10 hottest static sites (1.0 when the trace has <= 10 sites):
	// a footprint measure separating kernel-like traces from
	// dispatch-heavy ones.
	Top10Coverage float64
	// TransitionEntropy is the first-order Markov entropy of the
	// direction stream in bits — H(next direction | current direction)
	// over consecutive branch pairs. 0 means the next direction is
	// fully determined by the current one; 1 means it carries no
	// information (coin-flip transitions).
	TransitionEntropy float64
}

// Summarize computes summary statistics for a trace. StaticBranches
// and Top10Coverage count the PCs the trace (or prefix view) emits.
func Summarize(t *Trace) Stats {
	taken := 0
	static := make(map[uint64]int)
	var bigram [2][2]int
	prev := -1
	for b := range t.Branches() {
		to := int(bitutil.B2u(b.Taken))
		taken += to
		static[b.PC]++
		if prev >= 0 {
			bigram[prev][to]++
		}
		prev = to
	}
	s := Stats{
		Branches:       t.Len(),
		MicroOps:       t.MicroOps(),
		StaticBranches: len(static),
	}
	if s.Branches > 0 {
		s.TakenFraction = float64(taken) / float64(s.Branches)
		counts := make([]int, 0, len(static))
		for _, c := range static {
			counts = append(counts, c)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		top := 0
		for i, c := range counts {
			if i == 10 {
				break
			}
			top += c
		}
		s.Top10Coverage = float64(top) / float64(s.Branches)
	}
	if pairs := s.Branches - 1; pairs > 0 {
		var h float64
		for from := 0; from < 2; from++ {
			row := bigram[from][0] + bigram[from][1]
			if row == 0 {
				continue
			}
			var rowH float64
			for to := 0; to < 2; to++ {
				if c := bigram[from][to]; c > 0 {
					p := float64(c) / float64(row)
					rowH -= p * math.Log2(p)
				}
			}
			h += float64(row) / float64(pairs) * rowH
		}
		s.TransitionEntropy = h
	}
	return s
}

// Package trace defines the branch-trace model used by the simulator: a
// sequence of conditional-branch records on the correct execution path,
// each carrying its PC, its outcome, and the number of non-branch micro-ops
// preceding it (so that per-kilo-instruction metrics can be computed, as in
// the CBP-3 framework the paper uses). A trace is materialised in memory
// and read through a Cursor, and a compact binary encoding is provided
// for storing it on disk.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
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

// Trace is a fully materialised branch trace.
type Trace struct {
	// Name identifies the benchmark (e.g. "INT01").
	Name string
	// Category is the benchmark class (e.g. "INT").
	Category string
	Branches []Branch
}

// MicroOps returns the total micro-op count of the trace (branches plus
// the ops preceding each).
func (t *Trace) MicroOps() uint64 {
	var n uint64
	for _, b := range t.Branches {
		n += uint64(b.OpsBefore) + 1
	}
	return n
}

// Cursor reads a materialised trace in blocks: Seek re-points it at a
// trace and rewinds, so one Cursor serves every run of a pooled
// simulation. The zero value is exhausted.
type Cursor struct {
	t *Trace
	i int
}

// Seek points the cursor at the start of t (nil empties the cursor).
func (c *Cursor) Seek(t *Trace) { c.t, c.i = t, 0 }

// NextBatch fills dst with up to len(dst) branches, one bulk copy out
// of the materialised slice, and returns how many it wrote (0 at the end
// of the trace).
func (c *Cursor) NextBatch(dst []Branch) int {
	if c.t == nil {
		return 0
	}
	n := copy(dst, c.t.Branches[c.i:])
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
	return len(c.t.Branches) - c.i
}

// Skip advances the cursor by up to n branches without yielding them
// (O(1) — the resume path of a checkpointed simulation) and returns
// how many were skipped.
func (c *Cursor) Skip(n int) int {
	if c.t == nil || n <= 0 {
		return 0
	}
	if rem := len(c.t.Branches) - c.i; n > rem {
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
	n := binary.PutUvarint(buf[:], uint64(len(t.Branches)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	prev := uint64(0)
	for _, b := range t.Branches {
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
	t := &Trace{}
	var err error
	if t.Name, err = readString(); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	if t.Category, err = readString(); err != nil {
		return nil, fmt.Errorf("trace: reading category: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("trace: unreasonable branch count %d", count)
	}
	t.Branches = make([]Branch, 0, count)
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
		t.Branches = append(t.Branches, Branch{PC: pc, Taken: flags&1 != 0, OpsBefore: ops})
		prev = pc
	}
	return t, nil
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
	for _, b := range t.Branches {
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

// Summarize computes summary statistics for a trace.
func Summarize(t *Trace) Stats {
	taken := 0
	static := make(map[uint64]int)
	var bigram [2][2]int
	for i, b := range t.Branches {
		if b.Taken {
			taken++
		}
		static[b.PC]++
		if i > 0 {
			from, to := 0, 0
			if t.Branches[i-1].Taken {
				from = 1
			}
			if b.Taken {
				to = 1
			}
			bigram[from][to]++
		}
	}
	s := Stats{
		Branches:       len(t.Branches),
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

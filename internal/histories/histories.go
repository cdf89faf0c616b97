// Package histories implements the branch-history state that geometric
// history length predictors are built on: a long global direction history
// kept in a circular buffer (as the paper notes, "repairing the global
// history is straightforward if one uses a circular buffer"), a hashed path
// history, per-branch local histories, and the incrementally-updated folded
// ("cyclic shift register") compression of long histories that makes
// indexing 2000-bit histories feasible in hardware and O(1) in software.
package histories

import (
	"math"

	"repro/internal/bitutil"
	"repro/internal/checkpoint"
)

// Global is a global branch direction history of unbounded logical length,
// stored in a power-of-two circular buffer. Index 0 is the most recent
// outcome. It supports checkpoint/restore, which is how a hardware
// implementation repairs history on a misprediction.
type Global struct {
	buf  []uint8
	head int // position of the most recent outcome
	mask int
	n    uint64 // total outcomes pushed
}

// NewGlobal returns a Global able to serve Bit(i) for i < capacity.
// capacity is rounded up to a power of two.
func NewGlobal(capacity int) *Global {
	c := bitutil.CeilPow2(capacity)
	return &Global{buf: make([]uint8, c), mask: c - 1}
}

// Push records the outcome of the most recent branch.
func (g *Global) Push(taken bool) {
	g.head = (g.head + 1) & g.mask
	var b uint8
	if taken {
		b = 1
	}
	g.buf[g.head] = b
	g.n++
}

// Bit returns the outcome of the i-th most recent branch (0 = most recent)
// as 0 or 1. Bits older than the buffer capacity or than the number of
// pushes read as 0.
func (g *Global) Bit(i int) uint32 {
	if uint64(i) >= g.n || i > g.mask {
		return 0
	}
	return uint32(g.buf[(g.head-i)&g.mask])
}

// Len returns the number of outcomes pushed so far.
func (g *Global) Len() uint64 { return g.n }

// Checkpoint captures the current history position for later restore.
type Checkpoint struct {
	head int
	n    uint64
}

// Save captures the current position.
func (g *Global) Save() Checkpoint { return Checkpoint{head: g.head, n: g.n} }

// Restore rewinds the history to a previous checkpoint. Entries pushed
// after the checkpoint become invisible (they may be overwritten by
// subsequent pushes). Restoring forward is not supported.
func (g *Global) Restore(c Checkpoint) {
	g.head = c.head
	g.n = c.n
}

// Folded is the incrementally maintained fold (XOR-compression) of the most
// recent Length bits of a Global history down to Width bits. It is the
// "circular shift register" of the PPM-like and TAGE predictor
// implementations: after each Push on the underlying history, call Update
// exactly once.
//
// Folded is a plain value type: predictors store their folds in flat
// []Folded slices so that the per-branch update loop walks contiguous
// memory instead of chasing one pointer per fold. The zero Folded is an
// inert placeholder (Length 0, Value 0); construct real folds with
// NewFolded.
//
// Invariant (checked by property tests): Value() equals the XOR over
// i in [0, Length) of Bit(i) << (i mod Width).
//
// The struct is deliberately kept small — 20 bytes, with narrow
// Width/Length fields — so a predictor's whole fold array stays
// cache-resident: the per-branch update walks every fold, making their
// footprint a first-order throughput term.
type Folded struct {
	comp   uint32
	mask   uint32 // (1 << Width) - 1
	outBit uint32 // 1 << (Length % Width): where the expiring bit leaves the fold
	Width  uint8  // folded width in bits (1..31)
	Length int32  // history length being folded
}

// NewFolded returns a fold of `length` history bits into `width` bits.
func NewFolded(length int, width uint) Folded {
	if width < 1 || width > 31 {
		panic("histories: folded width out of range")
	}
	return Folded{
		Width:  uint8(width),
		Length: int32(length),
		outBit: 1 << (uint(length) % width),
		mask:   uint32(bitutil.Mask(width)),
	}
}

// Update incorporates the most recent outcome (which must already have been
// pushed into g) and expires the bit that left the window.
func (f *Folded) Update(g *Global) {
	f.UpdateBits(g.Bit(0), g.Bit(int(f.Length)))
}

// UpdateBits is the hot-path form of Update for callers that already hold
// the two history bits the fold consumes: newest is the just-pushed outcome
// (g.Bit(0)) and oldest the bit leaving the window (g.Bit(Length)). Several
// folds sharing one history length can thus be advanced from a single pair
// of history reads. The expiring bit lands via the precomputed outBit mask
// ((-oldest)&outBit == oldest<<outpoint for oldest in {0,1}), leaving one
// variable shift in the whole update.
func (f *Folded) UpdateBits(newest, oldest uint32) {
	c := (f.comp << 1) | newest
	c ^= (-oldest) & f.outBit
	c ^= c >> (f.Width & 31) // &31: tells the compiler no shift guard is needed
	f.comp = c & f.mask
}

// Value returns the current folded value.
func (f *Folded) Value() uint32 { return f.comp }

// Reset clears the fold (e.g. after a history restore) so it can be
// recomputed with Recompute.
func (f *Folded) Reset() { f.Walk(checkpoint.Walker{}) }

// Recompute recalculates the fold from the underlying history from scratch.
// Used after history repair and by tests as the ground truth.
func (f *Folded) Recompute(g *Global) {
	var v uint32
	for i := 0; i < int(f.Length); i++ {
		v ^= g.Bit(i) << (uint(i) % uint(f.Width))
	}
	f.comp = v
}

// TableFolds bundles the three folds a TAGE-style tagged table maintains —
// index, tag hash 1 and tag hash 2 — which all compress the same history
// length. Updating them together fetches the shared newest/oldest history
// bits once per table instead of once per fold, cutting the per-branch
// history reads of an M-table predictor from 6M to M+1 (the newest bit is
// shared by every table).
type TableFolds struct {
	Idx  Folded
	Tag1 Folded
	Tag2 Folded
}

// NewTableFolds builds the fold triple for one tagged table: history length
// length folded to idxWidth index bits and tagWidth/tag2Width tag bits.
func NewTableFolds(length int, idxWidth, tagWidth, tag2Width uint) TableFolds {
	return TableFolds{
		Idx:  NewFolded(length, idxWidth),
		Tag1: NewFolded(length, tagWidth),
		Tag2: NewFolded(length, tag2Width),
	}
}

// oldestBit is Global.Bit with the buffer fields pre-fetched by the
// caller, shared by the batched updaters so the guard and index logic
// exist in exactly one place. buf must be g.buf[:mask+1].
func oldestBit(buf []uint8, head, mask int, n uint64, length int) uint32 {
	if uint64(length) >= n || length > mask {
		return 0
	}
	return uint32(buf[(head-length)&mask])
}

// UpdateFolds advances a flat fold array after g.Push(taken): the shared
// newest bit is the pushed outcome itself (no history read needed) and
// each fold's expiring bit is read once with the buffer fields hoisted
// out of the loop. Zero-length (inert) folds are skipped, so GEHL-style
// predictors can keep an L=0 placeholder in the slice.
func UpdateFolds(g *Global, folds []Folded, taken bool) {
	newest := uint32(0)
	if taken {
		newest = 1
	}
	head, mask, n := g.head, g.mask, g.n
	buf := g.buf[:mask+1] // len(buf) == mask+1, so (x)&mask is provably in range
	for i := range folds {
		f := &folds[i]
		length := int(f.Length)
		if length == 0 {
			continue
		}
		f.UpdateBits(newest, oldestBit(buf, head, mask, n, length))
	}
}

// UpdateAll advances every fold triple after g.Push(taken): the shared
// newest bit is the pushed outcome itself (no history read at all) and
// each triple's expiring bit is read once with the buffer fields hoisted
// out of the loop. This is the whole per-branch folded-history update of
// a TAGE-style predictor in one call.
func UpdateAll(g *Global, folds []TableFolds, taken bool) {
	newest := uint32(0)
	if taken {
		newest = 1
	}
	head, mask, n := g.head, g.mask, g.n
	buf := g.buf[:mask+1] // len(buf) == mask+1, so (x)&mask is provably in range
	for i := range folds {
		f := &folds[i]
		// The three UpdateBits calls are spelled out (rather than routed
		// through a TableFolds method) so they stay within the compiler's
		// inlining budget: this loop runs for every table on every branch.
		oldest := oldestBit(buf, head, mask, n, int(f.Idx.Length))
		f.Idx.UpdateBits(newest, oldest)
		f.Tag1.UpdateBits(newest, oldest)
		f.Tag2.UpdateBits(newest, oldest)
	}
}

// Path is a hashed path history: one address bit per branch, as used by
// TAGE's index hash. Width is capped at 32.
type Path struct {
	v     uint32
	width uint
}

// NewPath returns a path history of the given width in bits.
func NewPath(width uint) *Path {
	if width > 32 {
		width = 32
	}
	return &Path{width: width}
}

// Push shifts in one bit of the branch address.
func (p *Path) Push(pc uint64) {
	p.v = ((p.v << 1) | uint32(pc>>2)&1) & uint32(bitutil.Mask(p.width))
}

// Value returns the current path register value.
func (p *Path) Value() uint32 { return p.v }

// Reset clears the path register to its initial state.
func (p *Path) Reset() { p.v = 0 }

// Local is a table of per-branch local direction histories, as used by the
// Local history Statistical Corrector (Section 6 of the paper): a small
// direct-mapped table indexed by PC, each entry a shift register of branch
// outcomes.
type Local struct {
	entries []uint32
	width   uint
	mask    uint64
}

// NewLocal returns a direct-mapped local history table with the given
// number of entries (rounded up to a power of two) and history width.
func NewLocal(entries int, width uint) *Local {
	n := bitutil.CeilPow2(entries)
	if width > 31 {
		width = 31
	}
	return &Local{entries: make([]uint32, n), width: width, mask: uint64(n - 1)}
}

// IndexOf returns the table index used for pc. The PC is hashed (a real
// implementation XORs a few PC bit groups) so that small tables use all
// their entries regardless of code alignment.
func (l *Local) IndexOf(pc uint64) int { return int(bitutil.Mix64(pc>>2) & l.mask) }

// Read returns the local history register for pc.
func (l *Local) Read(pc uint64) uint32 { return l.entries[l.IndexOf(pc)] }

// ReadAt returns the history at a precomputed index.
func (l *Local) ReadAt(idx int) uint32 { return l.entries[idx] }

// Update shifts the outcome into pc's local history.
func (l *Local) Update(pc uint64, taken bool) {
	i := l.IndexOf(pc)
	l.entries[i] = Shift(l.entries[i], taken, l.width)
}

// WriteAt overwrites the history at a precomputed index (used when a
// speculative history manager resolves the architectural value).
func (l *Local) WriteAt(idx int, h uint32) { l.entries[idx] = h }

// Width returns the history width in bits.
func (l *Local) Width() uint { return l.width }

// Entries returns the number of entries in the table.
func (l *Local) Entries() int { return len(l.entries) }

// Shift computes the successor local history: (h<<1)+outcome, truncated to
// width bits. Exported because the Speculative Local History Manager must
// apply the same transformation to in-flight histories (Figure 8:
// "new SH = (SH << 1) + prediction").
func Shift(h uint32, taken bool, width uint) uint32 {
	h <<= 1
	if taken {
		h |= 1
	}
	return h & uint32(bitutil.Mask(width))
}

// GeometricSeries returns n history lengths forming the geometric series of
// the OGEHL and TAGE predictors: L(1) = min, L(n) = max, and
// L(i) = int(alpha^(i-1) * L(1) + 0.5) for the intermediate lengths.
func GeometricSeries(min, max, n int) []int {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []int{min}
	}
	out := make([]int, n)
	ratio := float64(max) / float64(min)
	for i := 0; i < n; i++ {
		exp := float64(i) / float64(n-1)
		out[i] = int(float64(min)*math.Pow(ratio, exp) + 0.5)
	}
	out[0] = min
	out[n-1] = max
	// Guarantee strict monotonicity even after rounding.
	for i := 1; i < n; i++ {
		if out[i] <= out[i-1] {
			out[i] = out[i-1] + 1
		}
	}
	return out
}

// Package gshare implements McFarling's gshare predictor, used by the
// paper (Section 4.1) as the representative first-generation single-table
// predictor: a table of 2-bit counters indexed by the XOR of the branch PC
// and the global history. The paper's configuration is 512 Kbits, i.e.
// 2^18 2-bit counters with an 18-bit history.
package gshare

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/checkpoint"
	"repro/internal/histories"
	"repro/internal/memarray"
)

// Predictor is a gshare predictor.
type Predictor struct {
	table    []uint8 // 2-bit counters, 0..3
	mask     uint32
	histLen  uint
	ghr      uint32 // global history register, histLen bits
	stats    *memarray.Stats
	logTable uint
	name     string // formatted once: Name is on the per-run result path
}

// New returns a gshare predictor with 2^logTable 2-bit counters and a
// history length equal to logTable (capped at 32).
func New(logTable uint) *Predictor {
	h := logTable
	if h > 32 {
		h = 32
	}
	p := &Predictor{
		table:    make([]uint8, 1<<logTable),
		mask:     uint32(1<<logTable - 1),
		histLen:  h,
		stats:    &memarray.Stats{},
		logTable: logTable,
	}
	p.walk(checkpoint.Fresh())
	p.name = fmt.Sprintf("gshare-%dKb", p.StorageBits()/1024)
	return p
}

// Ctx is the pipeline context: the index and counter read at prediction.
type Ctx struct {
	Index uint32
	Ctr   int32
}

// Name implements predictor.Predictor.
func (p *Predictor) Name() string { return p.name }

// StorageBits implements predictor.Predictor.
func (p *Predictor) StorageBits() int { return 2 * len(p.table) }

// index computes the gshare table index.
func (p *Predictor) index(pc uint64) uint32 {
	return (uint32(pc>>2) ^ (p.ghr & uint32(bitutil.Mask(p.histLen)))) & p.mask
}

// Predict implements predictor.Predictor.
func (p *Predictor) Predict(pc uint64, ctx *Ctx) bool {
	ctx.Index = p.index(pc)
	ctx.Ctr = int32(p.table[ctx.Index])
	return ctx.Ctr >= 2
}

// OnResolve implements predictor.Predictor: the speculative global history
// is updated immediately (it is repaired instantly on mispredictions in
// hardware, and on the correct path equals the architectural history).
func (p *Predictor) OnResolve(pc uint64, taken, mispredicted bool, ctx *Ctx) {
	p.ghr = histories.Shift(p.ghr, taken, p.histLen)
}

// Retire implements predictor.Predictor.
func (p *Predictor) Retire(pc uint64, taken bool, ctx *Ctx, reread bool) {
	old := ctx.Ctr
	if reread {
		old = int32(p.table[ctx.Index])
	}
	next := old
	if taken {
		if next < 3 {
			next++
		}
	} else if next > 0 {
		next--
	}
	if uint8(next) != p.table[ctx.Index] {
		p.table[ctx.Index] = uint8(next)
		p.stats.RecordWrite(true)
	} else {
		p.stats.RecordWrite(false)
	}
}

// AccessStats implements predictor.Predictor.
func (p *Predictor) AccessStats() *memarray.Stats { return p.stats }

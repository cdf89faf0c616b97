// Package bimodal implements the PC-indexed bimodal predictor used as the
// tagless base component T0 of TAGE (Section 3): a table of 2-bit counters
// split into a prediction-bit array and a smaller shared hysteresis array
// ("32K prediction bits + 8K hysteresis bits" in the reference predictor,
// i.e. 4 prediction entries share one hysteresis bit).
package bimodal

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/memarray"
)

// Table is the bimodal storage. The logical 2-bit counter of entry i is
// (pred[i] << 1) | hyst[i >> share]: values 0..3, taken when >= 2.
type Table struct {
	pred    []uint8
	hyst    []uint8
	pMask   uint32
	hShift  uint
	stats   *memarray.Stats
	logPred uint
	logHyst uint
}

// New creates a bimodal table with 2^logPred prediction bits and 2^logHyst
// hysteresis bits (logHyst <= logPred). stats may be nil.
func New(logPred, logHyst uint, stats *memarray.Stats) *Table {
	if logHyst > logPred {
		panic("bimodal: more hysteresis than prediction bits")
	}
	if stats == nil {
		stats = &memarray.Stats{}
	}
	t := &Table{
		pred:    make([]uint8, 1<<logPred),
		hyst:    make([]uint8, 1<<logHyst),
		pMask:   uint32(1<<logPred - 1),
		hShift:  logPred - logHyst,
		stats:   stats,
		logPred: logPred,
		logHyst: logHyst,
	}
	t.Walk(checkpoint.Fresh())
	return t
}

// Index returns the prediction-array index for pc.
func (t *Table) Index(pc uint64) uint32 { return uint32(pc>>2) & t.pMask }

// IndexBanked returns the prediction-array index under bank interleaving
// (Section 4.3 applied to the base predictor): the bank supplies the top
// bits of the physical index, so the same PC may train up to `banks`
// entries depending on its dynamic neighbours.
func (t *Table) IndexBanked(pc uint64, bank, banks int) uint32 {
	per := (t.pMask + 1) / uint32(banks)
	return uint32(bank)*per + uint32(pc>>2)&(per-1)
}

// Read returns the current 2-bit counter value (0..3) at index pi.
func (t *Table) Read(pi uint32) int32 {
	return int32(t.pred[pi])<<1 | int32(t.hyst[pi>>(t.hShift&31)])
}

// Taken reports the direction predicted by a counter value.
func Taken(ctr int32) bool { return ctr >= 2 }

// Write stores the 2-bit counter newCtr at index pi, accounting silent
// writes per bit-array (the prediction and hysteresis arrays are physically
// distinct, so each is accounted separately). The store itself is
// unconditional — rewriting an equal byte is free, while branching on the
// comparison costs a mispredict on this data-dependent path — and only the
// accounting uses the comparison result.
func (t *Table) Write(pi uint32, newCtr int32) {
	p := uint8(newCtr >> 1)
	h := uint8(newCtr & 1)
	effP := t.pred[pi] != p
	t.pred[pi] = p
	t.stats.RecordWrite(effP)
	hi := pi >> (t.hShift & 31)
	effH := t.hyst[hi] != h
	t.hyst[hi] = h
	t.stats.RecordWrite(effH)
}

// Next returns the counter moved one step toward the outcome, saturating
// in [0, 3]. Conditional-move form: the outcome is a coin flip, so a branch
// on it would mispredict half the time.
func Next(ctr int32, taken bool) int32 {
	d := int32(-1)
	if taken {
		d = 1
	}
	n := ctr + d
	if n > 3 {
		n = 3
	}
	if n < 0 {
		n = 0
	}
	return n
}

// StorageBits returns the storage cost in bits.
func (t *Table) StorageBits() int { return len(t.pred) + len(t.hyst) }

// Ctx is the pipeline context of a standalone bimodal predictor.
type Ctx struct {
	Index uint32
	Ctr   int32 // counter value read at prediction time
}

// Standalone wraps Table as a complete predictor (used by the Figure 3
// delayed-update example and tests).
type Standalone struct {
	t    *Table
	name string // formatted once: Name is on the per-run result path
}

// NewStandalone returns a standalone bimodal predictor.
func NewStandalone(logPred, logHyst uint) *Standalone {
	s := &Standalone{t: New(logPred, logHyst, nil)}
	s.name = fmt.Sprintf("bimodal-%dKb", s.StorageBits()/1024)
	return s
}

// Name implements predictor.Predictor.
func (s *Standalone) Name() string { return s.name }

// StorageBits implements predictor.Predictor.
func (s *Standalone) StorageBits() int { return s.t.StorageBits() }

// Predict implements predictor.Predictor.
func (s *Standalone) Predict(pc uint64, ctx *Ctx) bool {
	ctx.Index = s.t.Index(pc)
	ctx.Ctr = s.t.Read(ctx.Index)
	return Taken(ctx.Ctr)
}

// OnResolve implements predictor.Predictor. Bimodal keeps no history.
func (s *Standalone) OnResolve(pc uint64, taken, mispredicted bool, ctx *Ctx) {}

// Retire implements predictor.Predictor.
func (s *Standalone) Retire(pc uint64, taken bool, ctx *Ctx, reread bool) {
	old := ctx.Ctr
	if reread {
		old = s.t.Read(ctx.Index)
	}
	s.t.Write(ctx.Index, Next(old, taken))
}

// AccessStats implements predictor.Predictor.
func (s *Standalone) AccessStats() *memarray.Stats { return s.t.stats }

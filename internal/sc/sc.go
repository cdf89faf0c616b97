// Package sc implements the (global history) Statistical Corrector
// predictor of Section 5.3: a small GEHL-derived adder tree that detects
// statistically biased branches which TAGE predicts worse than a simple
// wide-counter table, and reverts the TAGE prediction when it disagrees
// with high confidence.
//
// Configuration from the paper: 4 logical tables of 1K 6-bit entries
// (24 Kbits total) indexed with the 4 shortest TAGE history lengths
// (0, 6, 10, 17) and the prediction flowing out of TAGE. The correction
// sum is the sum of the centered Statistical Corrector counters plus eight
// times the centered value of the TAGE provider counter, and the revert
// fires when the corrector disagrees and the absolute sum exceeds a
// dynamically adapted threshold.
package sc

import (
	"repro/internal/bitutil"
	"repro/internal/checkpoint"
	"repro/internal/gehl"
	"repro/internal/histories"
	"repro/internal/memarray"
)

// MaxTables bounds the corrector size for fixed-size contexts.
const MaxTables = 8

// Config parameterises the Statistical Corrector.
type Config struct {
	LogEntries uint  // default 10 (1K entries/table)
	CtrBits    uint  // default 6
	Lengths    []int // default {0, 6, 10, 17}
	TageWeight int32 // weight of the centered TAGE counter (default 8)
}

func (c Config) withDefaults() Config {
	if c.LogEntries == 0 {
		c.LogEntries = 10
	}
	if c.CtrBits == 0 {
		c.CtrBits = 6
	}
	if len(c.Lengths) == 0 {
		c.Lengths = []int{0, 6, 10, 17}
	}
	if len(c.Lengths) > MaxTables {
		panic("sc: too many tables")
	}
	if c.TageWeight == 0 {
		c.TageWeight = 8
	}
	return c
}

// Corrector is the global-history Statistical Corrector.
type Corrector struct {
	cfg   Config
	eng   *gehl.Engine
	ghist *histories.Global
	// folds packs the corrector's folded histories into the word-parallel
	// engine (update-dominated, one read per fold per branch); handle i
	// belongs to Lengths[i], with zero lengths registered inert.
	folds *histories.PackedFolds
	fvals []uint32 // folds.Values(), cached for the predict loop

	// Reverts counts predictions inverted by the corrector; UsefulReverts
	// those inversions that were correct.
	Reverts       uint64
	UsefulReverts uint64

	// Revert threshold state: the paper adjusts the threshold at run time
	// "to ensure that the use of the Statistical Corrector predictor is
	// beneficial"; rbenefit tracks revert successes minus failures.
	rthresh  int32
	rbenefit int32
}

// Ctx is the per-branch corrector context.
type Ctx struct {
	Indices  [MaxTables]uint32
	Ctrs     [MaxTables]int8
	Sum      int32
	SCPred   bool
	InPred   bool // the main prediction presented to the corrector
	Reverted bool
}

// New creates a Statistical Corrector. stats may be nil.
func New(cfg Config, stats *memarray.Stats) *Corrector {
	cfg = cfg.withDefaults()
	maxLen := 0
	for _, l := range cfg.Lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	c := &Corrector{
		cfg: cfg,
		eng: gehl.NewEngine(gehl.Config{
			NumTables:  len(cfg.Lengths),
			LogEntries: cfg.LogEntries,
			CtrBits:    cfg.CtrBits,
			MinHist:    1, MaxHist: maxLen + 1, // unused by Engine indexing
		}, cfg.Lengths, stats),
		ghist: histories.NewGlobal(maxLen + 8),
	}
	var fb histories.PackedBuilder
	for _, l := range cfg.Lengths {
		fb.Add(l, cfg.LogEntries) // l == 0 registers the inert fold
	}
	c.folds = fb.Build()
	c.fvals = c.folds.Values()
	c.Walk(checkpoint.Fresh())
	return c
}

// StorageBits returns the corrector table storage.
func (c *Corrector) StorageBits() int { return c.eng.StorageBits() }

// Predict computes the corrected prediction. mainPred is the prediction
// flowing out of the main (TAGE + IUM [+ loop]) predictor and
// tageCtrCentered is the centered value of the TAGE provider counter
// (2*ctr+1), which folds prediction confidence into the sum.
func (c *Corrector) Predict(pc uint64, mainPred bool, tageCtrCentered int32, ctx *Ctx) bool {
	predBit := uint32(0)
	if mainPred {
		predBit = 1
	}
	var sum int32
	for i := range c.cfg.Lengths {
		// A zero-length fold is inert and reads as 0.
		idx := c.eng.Index(i, pc, c.fvals[i], predBit*0x5bd1e995)
		ctr := c.eng.Read(i, idx)
		ctx.Indices[i] = idx
		ctx.Ctrs[i] = int8(ctr)
		sum += bitutil.Centered(ctr)
	}
	sum += c.cfg.TageWeight * tageCtrCentered
	ctx.Sum = sum
	ctx.SCPred = sum >= 0
	ctx.InPred = mainPred
	ctx.Reverted = false
	if ctx.SCPred != mainPred && abs32(sum) >= c.rthresh {
		ctx.Reverted = true
		c.Reverts++
		return ctx.SCPred
	}
	return mainPred
}

// OnResolve advances the corrector's speculative global history.
func (c *Corrector) OnResolve(taken bool) {
	c.ghist.Push(taken)
	c.folds.Update(c.ghist, taken)
}

// Retire updates the corrector tables at retire time: counters train
// toward the outcome when the corrector was wrong or unconfident, and the
// threshold adapts, exactly as in the GEHL update policy the corrector is
// derived from.
func (c *Corrector) Retire(taken bool, ctx *Ctx, reread bool) {
	if ctx.Reverted {
		if ctx.SCPred == taken {
			c.UsefulReverts++
			c.rbenefit++
		} else {
			c.rbenefit -= 2 // a wrong revert costs what a right one saves
		}
		if c.rbenefit <= -16 {
			c.rbenefit = 0
			c.rthresh++ // reverting too eagerly: raise the bar
		} else if c.rbenefit >= 64 {
			c.rbenefit = 0
			if c.rthresh > int32(len(c.cfg.Lengths)) {
				c.rthresh--
			}
		}
	}
	scWrong := ctx.SCPred != taken
	a := abs32(ctx.Sum)
	if c.eng.ShouldUpdate(scWrong, a) {
		for i := range c.cfg.Lengths {
			old := int32(ctx.Ctrs[i])
			if reread {
				old = c.eng.Read(i, ctx.Indices[i])
			}
			c.eng.Train(i, ctx.Indices[i], old, taken)
		}
	}
	c.eng.AdaptThreshold(scWrong, a)
}

// RevertSuccessRate returns the fraction of reverts that were correct
// (the paper reports "more than 70%" for the LSC).
func (c *Corrector) RevertSuccessRate() float64 {
	if c.Reverts == 0 {
		return 0
	}
	return float64(c.UsefulReverts) / float64(c.Reverts)
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// Package neural implements a piecewise-linear neural branch predictor in
// the style of Jiménez's piecewise linear branch prediction (ISCA 2005)
// with the scaled-weight refinement of the SNAP/OH-SNAP line of predictors
// (St. Amant, Jiménez, Burger, MICRO 2008; Jiménez, CBP-3 2011). It is the
// repository's stand-in for OH-SNAP, the CBP-3 3rd-place predictor the
// paper compares against in Section 6.3.
//
// Prediction: sum of per-(branch, path-position) weights selected by the
// addresses of recent branches, each weight signed by the corresponding
// history outcome and scaled by a position-dependent coefficient; the sign
// of the sum is the prediction. Training is perceptron-style with a
// dynamically adapted threshold.
package neural

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/memarray"
)

// MaxHist bounds the history length for fixed-size contexts.
const MaxHist = 40

// Config parameterises the predictor.
type Config struct {
	// LogPC is log2 of the PC buckets (default 7 = 128).
	LogPC uint
	// LogPath is log2 of the path-address buckets per position (default 4).
	LogPath uint
	// Hist is the history length (default 26).
	Hist int
	// WeightBits is the weight width (default 8: [-128, 127]).
	WeightBits uint
}

func (c Config) withDefaults() Config {
	if c.LogPC == 0 {
		c.LogPC = 7
	}
	if c.LogPath == 0 {
		c.LogPath = 4
	}
	if c.Hist == 0 {
		c.Hist = 26
	}
	if c.Hist > MaxHist {
		panic("neural: history too long")
	}
	if c.WeightBits == 0 {
		c.WeightBits = 8
	}
	return c
}

// Predictor is the piecewise-linear predictor.
type Predictor struct {
	cfg    Config
	w      []int8 // [pcBuckets][pathBuckets][hist]
	bias   []int8 // [pcBuckets]
	pcMask uint32
	paMask uint32

	// speculative path/direction history rings
	path []uint32
	dirs []bool
	head int

	theta int32
	tc    int32

	name string // formatted once: Name is on the per-run result path

	stats *memarray.Stats
}

// Ctx is the pipeline context: the weight cells used and values read.
type Ctx struct {
	BiasIdx uint32
	Cells   [MaxHist]uint32 // flat weight indices
	Vals    [MaxHist]int8
	BiasVal int8
	Signs   [MaxHist]bool // history direction per position
	Sum     int32
	Pred    bool
}

// New creates a piecewise-linear predictor.
func New(cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	n := (1 << cfg.LogPC) * (1 << cfg.LogPath) * cfg.Hist
	p := &Predictor{
		cfg:    cfg,
		w:      make([]int8, n),
		bias:   make([]int8, 1<<cfg.LogPC),
		pcMask: uint32(1<<cfg.LogPC - 1),
		paMask: uint32(1<<cfg.LogPath - 1),
		path:   make([]uint32, cfg.Hist),
		dirs:   make([]bool, cfg.Hist),
		stats:  &memarray.Stats{},
	}
	p.walk(checkpoint.Fresh())
	p.name = fmt.Sprintf("pwl-%dKb", p.StorageBits()/1024)
	return p
}

// Name implements predictor.Predictor.
func (p *Predictor) Name() string { return p.name }

// StorageBits implements predictor.Predictor.
func (p *Predictor) StorageBits() int {
	return (len(p.w) + len(p.bias)) * int(p.cfg.WeightBits)
}

// scale is the SNAP-style position coefficient: recent history positions
// carry more weight.
func scale(j int) int32 {
	switch {
	case j < 4:
		return 4
	case j < 12:
		return 3
	case j < 20:
		return 2
	default:
		return 1
	}
}

// cell returns the flat index for (pc bucket, path bucket, position).
func (p *Predictor) cell(pcIdx, pathIdx uint32, j int) uint32 {
	return (pcIdx*(p.paMask+1)+pathIdx)*uint32(p.cfg.Hist) + uint32(j)
}

// Predict implements predictor.Predictor.
func (p *Predictor) Predict(pc uint64, ctx *Ctx) bool {
	pcIdx := uint32(pc>>2) & p.pcMask
	ctx.BiasIdx = pcIdx
	ctx.BiasVal = p.bias[pcIdx]
	sum := int32(ctx.BiasVal) * 2
	// Position j reads the path ring j places behind its head, wrapping
	// with a compare.
	slot := p.head
	for j := 0; j < p.cfg.Hist; j, slot = j+1, slot-1 {
		if slot < 0 {
			slot += p.cfg.Hist
		}
		pathIdx := p.path[slot] & p.paMask
		c := p.cell(pcIdx, pathIdx, j)
		v := p.w[c]
		ctx.Cells[j] = c
		ctx.Vals[j] = v
		ctx.Signs[j] = p.dirs[slot]
		if p.dirs[slot] {
			sum += int32(v) * scale(j)
		} else {
			sum -= int32(v) * scale(j)
		}
	}
	ctx.Sum = sum
	ctx.Pred = sum >= 0
	return ctx.Pred
}

// OnResolve implements predictor.Predictor: push speculative path history.
func (p *Predictor) OnResolve(pc uint64, taken, mispredicted bool, ctx *Ctx) {
	if p.head++; p.head == p.cfg.Hist {
		p.head = 0
	}
	p.path[p.head] = uint32(pc >> 2)
	p.dirs[p.head] = taken
}

// Retire implements predictor.Predictor: perceptron training with dynamic
// threshold.
func (p *Predictor) Retire(pc uint64, taken bool, ctx *Ctx, reread bool) {
	mispredicted := ctx.Pred != taken
	a := ctx.Sum
	if a < 0 {
		a = -a
	}
	if mispredicted || a < p.theta {
		max := int32(1)<<(p.cfg.WeightBits-1) - 1
		min := -max - 1
		clamp := func(v int32) int8 {
			if v > max {
				v = max
			}
			if v < min {
				v = min
			}
			return int8(v)
		}
		// Bias trains toward the outcome.
		ob := int32(ctx.BiasVal)
		if reread {
			ob = int32(p.bias[ctx.BiasIdx])
		}
		var nb int32
		if taken {
			nb = ob + 1
		} else {
			nb = ob - 1
		}
		if cv := clamp(nb); cv != p.bias[ctx.BiasIdx] {
			p.bias[ctx.BiasIdx] = cv
			p.stats.RecordWrite(true)
		} else {
			p.stats.RecordWrite(false)
		}
		for j := 0; j < p.cfg.Hist; j++ {
			ov := int32(ctx.Vals[j])
			if reread {
				ov = int32(p.w[ctx.Cells[j]])
			}
			var nv int32
			if ctx.Signs[j] == taken {
				nv = ov + 1
			} else {
				nv = ov - 1
			}
			if cv := clamp(nv); cv != p.w[ctx.Cells[j]] {
				p.w[ctx.Cells[j]] = cv
				p.stats.RecordWrite(true)
			} else {
				p.stats.RecordWrite(false)
			}
		}
	}
	// Threshold adaptation (Seznec-style balance fitting).
	if mispredicted {
		p.tc++
		if p.tc >= 63 {
			p.tc = 0
			p.theta++
		}
	} else if a < p.theta {
		p.tc--
		if p.tc <= -63 {
			p.tc = 0
			if p.theta > 1 {
				p.theta--
			}
		}
	}
}

// AccessStats implements predictor.Predictor.
func (p *Predictor) AccessStats() *memarray.Stats { return p.stats }

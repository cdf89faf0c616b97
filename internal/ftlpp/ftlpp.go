// Package ftlpp implements a fused two-level predictor in the style of
// FTL++ (Ishii, Kuroyanagi, Sawada, Inaba, Hiraki — CBP-3 2011, 2nd
// place), the paper's Section 6.3 comparison point: a GEHL global-history
// adder tree fused with a local-history GEHL (LGEHL) through a single
// summation and a shared threshold-based update ("Revisiting local history
// for improving fused two-level branch predictor").
package ftlpp

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/gehl"
	"repro/internal/histories"
	"repro/internal/memarray"
)

// MaxTables bounds each side of the fusion.
const MaxTables = 10

// Config parameterises the fused predictor.
type Config struct {
	// Global side (defaults: 8 tables, 8K entries, lengths 2..160).
	GlobalTables     int
	GlobalLogEntries uint
	GlobalMin        int
	GlobalMax        int
	// Local side (defaults: 4 tables, 2K entries, short local lengths,
	// 64-entry local history table).
	LocalTables     int
	LocalLogEntries uint
	LocalLengths    []int
	LHTEntries      int
	CtrBits         uint
}

func (c Config) withDefaults() Config {
	if c.GlobalTables == 0 {
		c.GlobalTables = 8
	}
	if c.GlobalLogEntries == 0 {
		c.GlobalLogEntries = 13
	}
	if c.GlobalMin == 0 {
		c.GlobalMin = 2
	}
	if c.GlobalMax == 0 {
		c.GlobalMax = 160
	}
	if c.LocalTables == 0 {
		c.LocalTables = 4
	}
	if c.LocalLogEntries == 0 {
		c.LocalLogEntries = 11
	}
	if len(c.LocalLengths) == 0 {
		c.LocalLengths = []int{0, 2, 4, 7}
	}
	if c.LHTEntries == 0 {
		c.LHTEntries = 64
	}
	if c.CtrBits == 0 {
		c.CtrBits = 5
	}
	if c.GlobalTables > MaxTables || len(c.LocalLengths) > MaxTables {
		panic("ftlpp: too many tables")
	}
	return c
}

// Predictor is the fused two-level predictor.
type Predictor struct {
	cfg  Config
	geng *gehl.Engine
	leng *gehl.Engine

	ghist  *histories.Global
	folded []histories.Folded
	lht    *histories.Local
	lwidth uint
	name   string // formatted once: Name is on the per-run result path
}

// Ctx is the pipeline context.
type Ctx struct {
	GIdx [MaxTables]uint32
	GCtr [MaxTables]int8
	LIdx [MaxTables]uint32
	LCtr [MaxTables]int8
	Sum  int32
	Pred bool
}

// New creates an FTL++-style predictor.
func New(cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	glens := make([]int, cfg.GlobalTables)
	glens[0] = 0
	copy(glens[1:], histories.GeometricSeries(cfg.GlobalMin, cfg.GlobalMax, cfg.GlobalTables-1))
	stats := &memarray.Stats{}
	maxLocal := 0
	for _, l := range cfg.LocalLengths {
		if l > maxLocal {
			maxLocal = l
		}
	}
	p := &Predictor{
		cfg: cfg,
		geng: gehl.NewEngine(gehl.Config{
			NumTables: cfg.GlobalTables, LogEntries: cfg.GlobalLogEntries,
			CtrBits: cfg.CtrBits, MinHist: 1, MaxHist: cfg.GlobalMax + 1,
		}, glens, stats),
		leng: gehl.NewEngine(gehl.Config{
			NumTables: len(cfg.LocalLengths), LogEntries: cfg.LocalLogEntries,
			CtrBits: cfg.CtrBits, MinHist: 1, MaxHist: maxLocal + 1,
		}, cfg.LocalLengths, stats),
		ghist:  histories.NewGlobal(cfg.GlobalMax + 64),
		lht:    histories.NewLocal(cfg.LHTEntries, uint(maxLocal)),
		lwidth: uint(maxLocal),
	}
	p.folded = make([]histories.Folded, cfg.GlobalTables)
	for i, l := range glens {
		if l > 0 {
			p.folded[i] = histories.NewFolded(l, cfg.GlobalLogEntries)
		}
	}
	p.name = fmt.Sprintf("ftlpp-%dKb", p.StorageBits()/1024)
	return p
}

// Name implements predictor.Predictor.
func (p *Predictor) Name() string { return p.name }

// StorageBits implements predictor.Predictor.
func (p *Predictor) StorageBits() int {
	return p.geng.StorageBits() + p.leng.StorageBits() +
		p.lht.Entries()*int(p.lwidth)
}

// foldLocal compresses a local history value into an index-width hash.
func foldLocal(h uint32, width uint) uint32 {
	mask := uint32(bitutil.Mask(width))
	v := uint32(0)
	for h != 0 {
		v ^= h & mask
		h >>= width
	}
	return v
}

// Predict implements predictor.Predictor.
func (p *Predictor) Predict(pc uint64, ctx *Ctx) bool {
	var sum int32
	for i := 0; i < p.cfg.GlobalTables; i++ {
		idx := p.geng.Index(i, pc, p.folded[i].Value(), 0)
		c := p.geng.Read(i, idx)
		ctx.GIdx[i] = idx
		ctx.GCtr[i] = int8(c)
		sum += bitutil.Centered(c)
	}
	lh := p.lht.Read(pc)
	for i, l := range p.cfg.LocalLengths {
		key := lh & uint32(bitutil.Mask(uint(l)))
		idx := p.leng.Index(i, pc, foldLocal(key, p.cfg.LocalLogEntries), 0x517cc1b7)
		c := p.leng.Read(i, idx)
		ctx.LIdx[i] = idx
		ctx.LCtr[i] = int8(c)
		sum += bitutil.Centered(c)
	}
	ctx.Sum = sum
	ctx.Pred = sum >= 0
	return ctx.Pred
}

// OnResolve implements predictor.Predictor.
func (p *Predictor) OnResolve(pc uint64, taken, mispredicted bool, ctx *Ctx) {
	p.ghist.Push(taken)
	histories.UpdateFolds(p.ghist, p.folded, taken)
	p.lht.Update(pc, taken)
}

// Retire implements predictor.Predictor: fused threshold-based update over
// both table sets, sharing the global engine's adaptive threshold.
func (p *Predictor) Retire(pc uint64, taken bool, ctx *Ctx, reread bool) {
	mispredicted := ctx.Pred != taken
	a := ctx.Sum
	if a < 0 {
		a = -a
	}
	if p.geng.ShouldUpdate(mispredicted, a) {
		for i := 0; i < p.cfg.GlobalTables; i++ {
			old := int32(ctx.GCtr[i])
			if reread {
				old = p.geng.Read(i, ctx.GIdx[i])
			}
			p.geng.Train(i, ctx.GIdx[i], old, taken)
		}
		for i := range p.cfg.LocalLengths {
			old := int32(ctx.LCtr[i])
			if reread {
				old = p.leng.Read(i, ctx.LIdx[i])
			}
			p.leng.Train(i, ctx.LIdx[i], old, taken)
		}
	}
	p.geng.AdaptThreshold(mispredicted, a)
}

// AccessStats implements predictor.Predictor.
func (p *Predictor) AccessStats() *memarray.Stats { return p.geng.Stats() }

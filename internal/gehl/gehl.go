// Package gehl implements the GEometric History Length (GEHL) predictor
// (Seznec, ISCA 2005), used by the paper in two roles: as the
// representative neural-inspired baseline of Section 4.1 (13 tables of 8K
// 5-bit counters, (6,2000) history series, 520 Kbits), and — through the
// Engine type — as the adder-tree machinery reused by the Statistical
// Corrector predictors of Sections 5.3 and 6 and by the FTL++-style
// comparator.
//
// Prediction is the sign of the sum of the centered counters (2c+1) read
// from each table; the update is threshold-based: counters move toward the
// outcome on a misprediction or when the absolute sum is below a
// dynamically adapted threshold.
package gehl

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/checkpoint"
	"repro/internal/histories"
	"repro/internal/memarray"
)

// MaxTables bounds the number of tables so pipeline contexts can use
// fixed-size arrays (no allocation on the hot path).
const MaxTables = 16

// Config parameterises a GEHL predictor.
type Config struct {
	// NumTables includes the L=0 table (default 13 in the paper's 520Kbit
	// configuration).
	NumTables int
	// LogEntries is log2 of the per-table entry count (default 13 = 8K).
	LogEntries uint
	// CtrBits is the counter width (default 5).
	CtrBits uint
	// MinHist/MaxHist span the geometric series for tables 2..NumTables;
	// table 1 uses history length 0 (defaults 6, 2000).
	MinHist, MaxHist int
}

func (c Config) withDefaults() Config {
	if c.NumTables == 0 {
		c.NumTables = 13
	}
	if c.NumTables > MaxTables {
		panic("gehl: too many tables")
	}
	if c.LogEntries == 0 {
		c.LogEntries = 13
	}
	if c.CtrBits == 0 {
		c.CtrBits = 5
	}
	if c.MinHist == 0 {
		c.MinHist = 6
	}
	if c.MaxHist == 0 {
		c.MaxHist = 2000
	}
	return c
}

// Engine is the table/adder-tree core shared by GEHL, the Statistical
// Corrector and the LSC: tables of signed counters indexed by PC hashed
// with geometric-length folded global (or caller-provided) histories.
type Engine struct {
	cfg     Config
	tables  [][]int8
	lengths []int
	mask    uint32
	stats   *memarray.Stats

	// dynamic update threshold state (Seznec's adaptive threshold fitting)
	theta int32
	tc    int32
}

// NewEngine creates the table core. lengths[i] is the history length of
// table i (0 allowed). stats may be nil.
func NewEngine(cfg Config, lengths []int, stats *memarray.Stats) *Engine {
	cfg = cfg.withDefaults()
	if stats == nil {
		stats = &memarray.Stats{}
	}
	e := &Engine{
		cfg:     cfg,
		lengths: lengths,
		mask:    uint32(1<<cfg.LogEntries - 1),
		stats:   stats,
	}
	e.tables = make([][]int8, len(lengths))
	for i := range e.tables {
		e.tables[i] = make([]int8, 1<<cfg.LogEntries)
	}
	e.Walk(checkpoint.Fresh())
	return e
}

// NumTables returns the table count.
func (e *Engine) NumTables() int { return len(e.tables) }

// Lengths returns the history lengths per table.
func (e *Engine) Lengths() []int { return e.lengths }

// StorageBits returns the counter storage in bits.
func (e *Engine) StorageBits() int {
	return len(e.tables) * (1 << e.cfg.LogEntries) * int(e.cfg.CtrBits)
}

// Index computes the table index for table i given the PC and a folded
// history value (pass 0 for the L=0 table; extra carries additional hash
// input such as the TAGE prediction bit for the Statistical Corrector).
func (e *Engine) Index(i int, pc uint64, folded uint32, extra uint32) uint32 {
	h := uint32(pc>>2) ^ folded ^ extra ^ uint32(i)*0x9e3779b9
	h ^= h >> e.cfg.LogEntries
	return h & e.mask
}

// Read returns the counter of table i at idx.
func (e *Engine) Read(i int, idx uint32) int32 { return int32(e.tables[i][idx]) }

// Sum computes the centered prediction sum over counters ctrs[0:n].
func Sum(ctrs []int8, n int) int32 {
	var s int32
	for i := 0; i < n; i++ {
		s += bitutil.Centered(int32(ctrs[i]))
	}
	return s
}

// Train moves the counter of table i at idx toward the outcome, starting
// from the provided old value (which is the re-read value or the
// prediction-time value depending on the update scenario), with silent
// writes elided.
func (e *Engine) Train(i int, idx uint32, old int32, taken bool) {
	next := bitutil.SatUpdateSigned(old, taken, e.cfg.CtrBits)
	if int8(next) != e.tables[i][idx] {
		e.tables[i][idx] = int8(next)
		e.stats.RecordWrite(true)
	} else {
		e.stats.RecordWrite(false)
	}
}

// Threshold returns the current dynamic update threshold.
func (e *Engine) Threshold() int32 { return e.theta }

// AdaptThreshold implements the dynamic threshold fitting of the OGEHL
// predictor: mispredictions push the threshold up, correct low-confidence
// predictions push it down, keeping the two update populations balanced.
func (e *Engine) AdaptThreshold(mispredicted bool, absSum int32) {
	if mispredicted {
		e.tc++
		if e.tc >= 63 {
			e.tc = 0
			e.theta++
		}
	} else if absSum < e.theta {
		e.tc--
		if e.tc <= -63 {
			e.tc = 0
			if e.theta > 1 {
				e.theta--
			}
		}
	}
}

// ShouldUpdate reports whether the threshold-based update fires.
func (e *Engine) ShouldUpdate(mispredicted bool, absSum int32) bool {
	return mispredicted || absSum < e.theta
}

// Stats returns the engine's access statistics.
func (e *Engine) Stats() *memarray.Stats { return e.stats }

// Predictor is the standalone GEHL branch predictor of Section 4.1.
type Predictor struct {
	eng   *Engine
	cfg   Config
	ghist *histories.Global
	// folds packs all table folds into the word-parallel engine: GEHL is
	// update-dominated (one fold read per table per branch against one
	// update of every fold), exactly the ratio where the packed layout
	// pays. Fold handle i belongs to table i (the L=0 table is inert).
	folds *histories.PackedFolds
	fvals []uint32 // folds.Values(), cached for the predict loop
	name  string   // formatted once: Name is on the per-run result path
}

// Ctx is the GEHL pipeline context: table indices and counters read at
// prediction time plus the computed sum.
type Ctx struct {
	Indices [MaxTables]uint32
	Ctrs    [MaxTables]int8
	Sum     int32
	Pred    bool
}

// New creates a standalone GEHL predictor.
func New(cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	lengths := make([]int, cfg.NumTables)
	lengths[0] = 0
	copy(lengths[1:], histories.GeometricSeries(cfg.MinHist, cfg.MaxHist, cfg.NumTables-1))
	eng := NewEngine(cfg, lengths, nil)
	p := &Predictor{
		eng:   eng,
		cfg:   cfg,
		ghist: histories.NewGlobal(cfg.MaxHist + 64),
	}
	var fb histories.PackedBuilder
	for _, l := range lengths {
		fb.Add(l, cfg.LogEntries) // l == 0 registers the inert fold
	}
	p.folds = fb.Build()
	p.fvals = p.folds.Values()
	p.name = fmt.Sprintf("gehl-%dKb", p.StorageBits()/1024)
	return p
}

// Name implements predictor.Predictor.
func (p *Predictor) Name() string { return p.name }

// StorageBits implements predictor.Predictor.
func (p *Predictor) StorageBits() int { return p.eng.StorageBits() }

// Predict implements predictor.Predictor.
func (p *Predictor) Predict(pc uint64, ctx *Ctx) bool {
	n := p.eng.NumTables()
	var sum int32
	for i := 0; i < n; i++ {
		idx := p.eng.Index(i, pc, p.fvals[i], 0)
		c := p.eng.Read(i, idx)
		ctx.Indices[i] = idx
		ctx.Ctrs[i] = int8(c)
		sum += bitutil.Centered(c)
	}
	ctx.Sum = sum
	ctx.Pred = sum >= 0
	return ctx.Pred
}

// OnResolve implements predictor.Predictor: speculative history update.
func (p *Predictor) OnResolve(pc uint64, taken, mispredicted bool, ctx *Ctx) {
	p.ghist.Push(taken)
	p.folds.Update(p.ghist, taken)
}

// Retire implements predictor.Predictor: threshold-based update at retire
// time. With reread the current counters are used (scenario [A]/[C] on
// mispredictions); otherwise the prediction-time counters are aged and
// written back, which is exactly the stale-counter clobbering the paper
// identifies as the large accuracy loss of scenarii [B]/[C] on GEHL.
func (p *Predictor) Retire(pc uint64, taken bool, ctx *Ctx, reread bool) {
	mispredicted := ctx.Pred != taken
	abs := ctx.Sum
	if abs < 0 {
		abs = -abs
	}
	if p.eng.ShouldUpdate(mispredicted, abs) {
		n := p.eng.NumTables()
		for i := 0; i < n; i++ {
			old := int32(ctx.Ctrs[i])
			if reread {
				old = p.eng.Read(i, ctx.Indices[i])
			}
			p.eng.Train(i, ctx.Indices[i], old, taken)
		}
	}
	p.eng.AdaptThreshold(mispredicted, abs)
}

// AccessStats implements predictor.Predictor.
func (p *Predictor) AccessStats() *memarray.Stats { return p.eng.Stats() }

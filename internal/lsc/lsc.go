// Package lsc implements the Local history Statistical Corrector of
// Section 6: the Statistical Corrector architecture re-based on per-branch
// local histories, which "dwarfs the benefits of the loop predictor and
// the global history Statistical Corrector".
//
// Configuration from the paper: a 32-entry direct-mapped local history
// table, a Speculative Local History Manager (Figure 8) tracking in-flight
// instances, and an LGEHL adder tree of 5 tables of 1K 6-bit entries with
// local history lengths (0, 4, 10, 17, 31) — about 30 Kbits.
package lsc

import (
	"slices"

	"repro/internal/bitutil"
	"repro/internal/checkpoint"
	"repro/internal/gehl"
	"repro/internal/histories"
	"repro/internal/inflight"
	"repro/internal/memarray"
)

// MaxTables bounds the LGEHL size for fixed-size contexts.
const MaxTables = 8

// Config parameterises the LSC.
type Config struct {
	LogEntries  uint  // per LGEHL table (default 10 = 1K)
	CtrBits     uint  // default 6
	Lengths     []int // local history lengths (default 0,4,10,17,31)
	TageWeight  int32 // weight of the centered TAGE counter (default 8)
	LHTEntries  int   // local history table entries (default 32)
	SLHMCap     int   // in-flight instances tracked (default 64)
	Interleaved bool  // bank-interleave the local components (Section 7.1)
}

func (c Config) withDefaults() Config {
	if c.LogEntries == 0 {
		c.LogEntries = 10
	}
	if c.CtrBits == 0 {
		c.CtrBits = 6
	}
	if len(c.Lengths) == 0 {
		c.Lengths = []int{0, 4, 10, 17, 31}
	}
	if len(c.Lengths) > MaxTables {
		panic("lsc: too many tables")
	}
	if c.TageWeight == 0 {
		c.TageWeight = 8
	}
	if c.LHTEntries == 0 {
		c.LHTEntries = 32
	}
	if c.SLHMCap == 0 {
		c.SLHMCap = 64
	}
	return c
}

type slhmEntry struct {
	idx  int
	hist uint32
}

// Corrector is the local-history Statistical Corrector.
type Corrector struct {
	cfg   Config
	eng   *gehl.Engine
	lht   *histories.Local
	width uint

	slhm inflight.Ring[slhmEntry]

	banks *memarray.BankTracker

	Reverts       uint64
	UsefulReverts uint64

	// Revert threshold state (see package sc): adapted on revert benefit.
	rthresh  int32
	rbenefit int32
}

// Ctx is the per-branch LSC context.
type Ctx struct {
	Indices  [MaxTables]uint32
	Ctrs     [MaxTables]int8
	Sum      int32
	SCPred   bool
	InPred   bool
	Reverted bool

	LhtIdx     int
	SpecHist   uint32
	PushedSLHM bool
}

// New creates an LSC. stats may be nil.
func New(cfg Config, stats *memarray.Stats) *Corrector {
	cfg = cfg.withDefaults()
	maxLen := slices.Max(cfg.Lengths)
	c := &Corrector{
		cfg: cfg,
		eng: gehl.NewEngine(gehl.Config{
			NumTables:  len(cfg.Lengths),
			LogEntries: cfg.LogEntries,
			CtrBits:    cfg.CtrBits,
			MinHist:    1, MaxHist: maxLen + 1,
		}, cfg.Lengths, stats),
		lht:   histories.NewLocal(cfg.LHTEntries, uint(maxLen)),
		width: uint(maxLen),
		slhm:  inflight.New[slhmEntry](cfg.SLHMCap),
	}
	if cfg.Interleaved {
		c.banks = memarray.NewBankTracker()
	}
	c.Walk(checkpoint.Fresh())
	return c
}

// StorageBits returns LGEHL tables plus the local history table.
func (c *Corrector) StorageBits() int {
	return c.eng.StorageBits() + c.lht.Entries()*int(c.width)
}

// StorageBits returns the storage budget of the corrector New(c, ...)
// builds, without allocating its tables.
func (c Config) StorageBits() int {
	c = c.withDefaults()
	return gehl.TablesBits(len(c.Lengths), c.LogEntries, c.CtrBits) +
		bitutil.CeilPow2(c.LHTEntries)*slices.Max(c.Lengths)
}

// foldLocal compresses a (short) local history value into the table index
// width, analogous to the global folded histories.
func foldLocal(h uint32, width uint) uint32 {
	mask := uint32(bitutil.Mask(width))
	v := uint32(0)
	for h != 0 {
		v ^= h & mask
		h >>= width
	}
	return v
}

// slhmLookup finds the youngest in-flight speculative history for a local
// history table index.
func (c *Corrector) slhmLookup(idx int) (uint32, bool) {
	old, young := c.slhm.Halves()
	for _, half := range [2][]slhmEntry{young, old} {
		for i := len(half) - 1; i >= 0; i-- {
			if half[i].idx == idx {
				return half[i].hist, true
			}
		}
	}
	return 0, false
}

// Predict computes the corrected prediction, using the speculative local
// history of any in-flight instance of the same local history entry.
func (c *Corrector) Predict(pc uint64, mainPred bool, tageCtrCentered int32, ctx *Ctx) bool {
	ctx.LhtIdx = c.lht.IndexOf(pc)
	hist, ok := c.slhmLookup(ctx.LhtIdx)
	if !ok {
		hist = c.lht.ReadAt(ctx.LhtIdx)
	}
	ctx.SpecHist = hist

	predBit := uint32(0)
	if mainPred {
		predBit = 1
	}
	bank := 0
	if c.banks != nil {
		bank = c.banks.Select(pc)
	}
	var sum int32
	for i, l := range c.cfg.Lengths {
		key := hist & uint32(bitutil.Mask(uint(l)))
		var idx uint32
		if c.banks != nil {
			inner := c.cfg.LogEntries - 2
			idx = c.eng.Index(i, pc, foldLocal(key, inner), predBit*0x5bd1e995) & uint32(bitutil.Mask(inner))
			idx |= uint32(bank) << inner
		} else {
			idx = c.eng.Index(i, pc, foldLocal(key, c.cfg.LogEntries), predBit*0x5bd1e995)
		}
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

// OnResolve pushes the in-flight speculative local history
// ("new SH = (SH << 1) + prediction", Figure 8).
func (c *Corrector) OnResolve(taken bool, ctx *Ctx) {
	next := histories.Shift(ctx.SpecHist, taken, c.width)
	c.slhm.Push(slhmEntry{idx: ctx.LhtIdx, hist: next})
	ctx.PushedSLHM = true
}

// Retire updates the LGEHL tables and the architectural local history.
func (c *Corrector) Retire(taken bool, ctx *Ctx, reread bool) {
	if ctx.PushedSLHM {
		c.slhm.Pop()
	}
	// Architectural local history advances at retire.
	arch := c.lht.ReadAt(ctx.LhtIdx)
	c.lht.WriteAt(ctx.LhtIdx, histories.Shift(arch, taken, c.width))

	if ctx.Reverted {
		if ctx.SCPred == taken {
			c.UsefulReverts++
			c.rbenefit++
		} else {
			c.rbenefit -= 2
		}
		if c.rbenefit <= -16 {
			c.rbenefit = 0
			c.rthresh++
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

// RevertSuccessRate returns the fraction of reverts that were correct.
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

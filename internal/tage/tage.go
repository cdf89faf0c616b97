// Package tage implements the TAGE conditional branch predictor of Seznec
// and Michaud (JILP 2006) as configured in the paper (Section 3): a
// bimodal base predictor T0 backed by M partially-tagged components indexed
// with geometrically increasing global history lengths. It includes the
// paper's refinements: the single-u-bit usefulness policy with global reset
// driven by an 8-bit allocation success/failure counter (Section 3.2.2),
// multi-entry allocation on non-consecutive tables (Section 3.2.1), the
// USE_ALT_ON_NA newly-allocated-provider heuristic, optional 4-way
// bank-interleaved table addressing (Section 4.3), and an optional
// Immediate Update Mimicker (Section 5.1).
package tage

import (
	"fmt"
	"math/bits"

	"repro/internal/bimodal"
	"repro/internal/bitutil"
	"repro/internal/checkpoint"
	"repro/internal/histories"
	"repro/internal/ium"
	"repro/internal/memarray"
	"repro/internal/rng"
)

// MaxTables bounds the number of tagged components so that pipeline
// contexts are fixed-size.
const MaxTables = 16

// CtrBits is the tagged-component prediction counter width (3 bits,
// Figure 2).
const CtrBits = 3

// Config parameterises a TAGE predictor.
type Config struct {
	// Name labels the configuration in reports (optional).
	Name string
	// LogBimodal is log2 of the number of bimodal prediction bits
	// (default 15 = 32K); LogBimodalHyst of the shared hysteresis bits
	// (default LogBimodal-2).
	LogBimodal     uint
	LogBimodalHyst uint
	// MinHist and MaxHist span the geometric history series over the
	// tagged tables (defaults 6 and 2000, the paper's reference).
	MinHist, MaxHist int
	// TableLogs gives log2(entries) for each tagged table T1..TM.
	TableLogs []uint
	// TagBits gives the partial tag width for each tagged table.
	TagBits []uint
	// MaxAlloc is the maximum number of entries allocated on a
	// misprediction (Section 3.2.1: "up to 3 or 4"; default 4).
	MaxAlloc int
	// Seed drives the allocation tie-breaking randomisation.
	Seed uint64
	// Interleaved enables 4-way bank-interleaved single-ported table
	// addressing (Section 4.3): the bank becomes part of the entry
	// identity, chosen by the EV8-style neighbour-avoiding selector.
	Interleaved bool
	// UseIUM attaches an Immediate Update Mimicker (Section 5.1).
	UseIUM bool
	// IUMCapacity and IUMExecDelay size the IUM (defaults 64 and 6); the
	// exec delay should match the simulator's fetch-to-execute distance.
	IUMCapacity  int
	IUMExecDelay int
}

func (c Config) withDefaults() Config {
	if c.LogBimodal == 0 {
		c.LogBimodal = 15
	}
	if c.LogBimodalHyst == 0 {
		c.LogBimodalHyst = c.LogBimodal - 2
	}
	if c.MinHist == 0 {
		c.MinHist = 6
	}
	if c.MaxHist == 0 {
		c.MaxHist = 2000
	}
	if c.MaxAlloc == 0 {
		c.MaxAlloc = 4
	}
	if c.IUMCapacity == 0 {
		c.IUMCapacity = 64
	}
	if c.IUMExecDelay == 0 {
		c.IUMExecDelay = 6
	}
	if len(c.TableLogs) == 0 {
		panic("tage: no tagged tables configured")
	}
	if len(c.TableLogs) > MaxTables {
		panic("tage: too many tagged tables")
	}
	if len(c.TagBits) != len(c.TableLogs) {
		panic("tage: TagBits/TableLogs length mismatch")
	}
	return c
}

// Reference returns the paper's reference predictor (Section 3.4): a
// 13-component TAGE fitting the 64KB CBP-3 budget — bimodal 32K+8K bits,
// 12 tagged tables with a (6,2000) geometric series, sizes 2K/4K.../1K and
// tag widths min(5+i, 15), for 523,264 bits = 65,408 bytes total.
//
// (The paper prints the tag-width rule as "max(6+i, 15)", which cannot
// match the stated byte budget; min(5+i, 15) matches it exactly.)
func Reference() Config {
	logs := []uint{11, 12, 12, 12, 12, 12, 12, 11, 11, 10, 10, 10}
	tags := make([]uint, len(logs))
	for i := range tags {
		t := uint(5 + i + 1) // table number is i+1
		if t > 15 {
			t = 15
		}
		tags[i] = t
	}
	return Config{
		Name:      "TAGE-ref",
		TableLogs: logs,
		TagBits:   tags,
		MinHist:   6,
		MaxHist:   2000,
	}
}

// Table-size clamps for Scale. The floors keep arbitrarily negative
// deltaLogs from producing zero-size (or negative-log) tables; the
// ceiling keeps arbitrarily positive ones from demanding tables beyond
// any storage-study budget (2^30 entries per component is already 256x
// the largest point of Figure 9). Within the clamps, scaling stays a
// pure power-of-two shift of every component.
const (
	minScaledTableLog   = 6
	minScaledBimodalLog = 8
	maxScaledLog        = 30
)

func clampLog(l, min int) uint {
	if l < min {
		l = min
	}
	if l > maxScaledLog {
		l = maxScaledLog
	}
	return uint(l)
}

// Scale returns cfg with every table size multiplied by 2^deltaLog
// (bimodal included), the Figure 9 scaling protocol: "scaling the sizes of
// all the components by a power of two, no attempt to optimize other
// parameters". Component sizes are clamped (see the clamp constants), so
// any deltaLog yields a constructible predictor: extreme budgets
// saturate instead of panicking or degenerating.
func Scale(cfg Config, deltaLog int) Config {
	out := cfg
	out.TableLogs = make([]uint, len(cfg.TableLogs))
	for i, l := range cfg.TableLogs {
		out.TableLogs[i] = clampLog(int(l)+deltaLog, minScaledTableLog)
	}
	if cfg.LogBimodal == 0 {
		cfg.LogBimodal = 15
	}
	lb := clampLog(int(cfg.LogBimodal)+deltaLog, minScaledBimodalLog)
	out.LogBimodal = lb
	out.LogBimodalHyst = lb - 2
	if cfg.Name != "" {
		out.Name = fmt.Sprintf("%s%+d", cfg.Name, deltaLog)
	}
	return out
}

// StorageBits returns the storage budget of the predictor New(c) builds,
// from the configuration alone: no table is allocated. The predictor's
// own StorageBits counts the tables it did allocate, and the two agree.
func (c Config) StorageBits() int {
	c = c.withDefaults()
	bits := bimodal.StorageBits(c.LogBimodal, c.LogBimodalHyst)
	for i, l := range c.TableLogs {
		bits += (1 << l) * (CtrBits + 1 + int(c.TagBits[i]))
	}
	return bits
}

// Label returns the Name the predictor New(c) builds reports.
func (c Config) Label() string { return label(c.Name, c.StorageBits()) }

// entry is one tagged-component entry (Figure 2): 3-bit signed prediction
// counter, partial tag, single useful bit.
type entry struct {
	ctr int8
	u   uint8
	tag uint16
}

// Predictor is a TAGE predictor.
//
// The tagged components live in one contiguous backing slice (entries)
// with per-table offsets, and each table's three folded histories sit in
// one flat []TableFolds — the predict/resolve hot loops walk arrays of
// precomputed constants (index shift, index mask, tag mask) instead of
// chasing per-table pointers.
type Predictor struct {
	cfg     Config
	bim     *bimodal.Table
	entries []entry     // all tagged tables, contiguous; table i at meta[i].offset
	meta    []tableMeta // packed per-table hot-path constants
	lengths []int
	idxBits []uint // log2 entries (full table)

	ghist *histories.Global
	// folds keeps each table's three folded histories in one flat slice:
	// the predict loop is read-dominated (three fold reads per table per
	// branch against one update), so the pre-extracted scalar layout beats
	// the packed word engine here — see internal/histories/packed.go for
	// where the packed layout does win.
	folds []histories.TableFolds

	useAlt int32  // USE_ALT_ON_NA, 4-bit signed counter
	tick   uint32 // 8-bit allocation success/failure monitor

	rand  *rng.Xoshiro
	stats *memarray.Stats
	banks *memarray.BankTracker // non-nil when interleaved
	ium   *ium.Buffer           // non-nil when UseIUM
}

// tableMeta packs the per-table constants the predict loop consumes —
// entry-store offset, index hash shift/mask, bank position and tag mask —
// into 12 bytes, so the whole constant array of a 12-table predictor fits
// in a little over two cache lines.
type tableMeta struct {
	offset    uint32 // start of the table in the contiguous entry store
	idxMask   uint32 // mask over the folded index bits
	idxShift  uint8  // PC-hash shift in the index function
	bankShift uint8  // bit position of the bank id (== index width when not interleaved)
	tagMask   uint16
}

// Ctx is the TAGE pipeline context: everything read at prediction time.
//
// The per-table snapshot (physical index, tag, counter, useful bit) is
// packed into one uint64 per table — a single store per table in the
// predict loop instead of five scattered array writes, and a third of the
// pipeline-ring footprint. Read it back through Index/Tag/Ctr/U.
type Ctx struct {
	BimIdx uint32
	BimCtr int32
	// Ent[i] = index | tag<<32 | uint8(ctr)<<48 | u<<56 for table i.
	Ent [MaxTables]uint64

	Provider int // provider component: 0 = bimodal, 1..M = tagged
	Alt      int // alternate component: 0 = bimodal
	ProvPred bool
	AltPred  bool
	WeakProv bool

	// TagePred is TAGE's own prediction; FinalPred is after the IUM
	// override (they coincide without IUM).
	TagePred  bool
	FinalPred bool
	IUMUsed   bool
	IUMHit    bool
	IUMCtr    int32
}

// Index returns the physical index captured for table i (bank included
// when interleaved).
func (c *Ctx) Index(i int) uint32 { return uint32(c.Ent[i]) }

// Tag returns the tag computed for table i.
func (c *Ctx) Tag(i int) uint16 { return uint16(c.Ent[i] >> 32) }

// Ctr returns the prediction counter read from table i.
func (c *Ctx) Ctr(i int) int8 { return int8(uint8(c.Ent[i] >> 48)) }

// U returns the useful bit read from table i.
func (c *Ctx) U(i int) uint8 { return uint8(c.Ent[i] >> 56) }

// New builds a TAGE predictor from cfg.
func New(cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	m := len(cfg.TableLogs)
	p := &Predictor{
		cfg:     cfg,
		bim:     nil,
		meta:    make([]tableMeta, m),
		lengths: histories.GeometricSeries(cfg.MinHist, cfg.MaxHist, m),
		idxBits: make([]uint, m),
		ghist:   histories.NewGlobal(cfg.MaxHist + 64),
		folds:   make([]histories.TableFolds, m),
		rand:    new(rng.Xoshiro),
		stats:   &memarray.Stats{},
	}
	p.bim = bimodal.New(cfg.LogBimodal, cfg.LogBimodalHyst, p.stats)
	total := 0
	for i := 0; i < m; i++ {
		total += 1 << cfg.TableLogs[i]
	}
	p.entries = make([]entry, total)
	off := uint32(0)
	for i := 0; i < m; i++ {
		p.idxBits[i] = cfg.TableLogs[i]
		idxWidth := cfg.TableLogs[i]
		if cfg.Interleaved {
			idxWidth -= 2 // index within a bank; bank supplies the top 2 bits
		}
		p.meta[i] = tableMeta{
			offset:    off,
			idxMask:   uint32(bitutil.Mask(idxWidth)),
			idxShift:  uint8(uint(i%int(idxWidth)) + 1),
			bankShift: uint8(idxWidth),
			tagMask:   uint16(bitutil.Mask(cfg.TagBits[i])),
		}
		off += 1 << cfg.TableLogs[i]
		w2 := cfg.TagBits[i] - 1
		if w2 < 1 {
			w2 = 1
		}
		p.folds[i] = histories.NewTableFolds(p.lengths[i], idxWidth, cfg.TagBits[i], w2)
	}
	if cfg.Interleaved {
		p.banks = memarray.NewBankTracker()
	}
	if cfg.UseIUM {
		p.ium = ium.New(cfg.IUMCapacity, cfg.IUMExecDelay)
	}
	p.Walk(checkpoint.Fresh())
	return p
}

// table returns the backing slice of tagged table i (0-based): a view into
// the contiguous entry store.
func (p *Predictor) table(i int) []entry {
	return p.entries[p.meta[i].offset : p.meta[i].offset+1<<p.idxBits[i]]
}

// Name implements predictor.Predictor.
func (p *Predictor) Name() string { return label(p.cfg.Name, p.StorageBits()) }

// label is the name of a predictor: its configured Name, else its budget.
func label(name string, bits int) string {
	if name != "" {
		return name
	}
	return fmt.Sprintf("TAGE-%dKb", bits/1024)
}

// StorageBits implements predictor.Predictor.
func (p *Predictor) StorageBits() int {
	bits := p.bim.StorageBits()
	for i := range p.idxBits {
		bits += (1 << p.idxBits[i]) * (CtrBits + 1 + int(p.cfg.TagBits[i]))
	}
	return bits
}

// Lengths returns the geometric history series in use.
func (p *Predictor) Lengths() []int { return p.lengths }

// NumTables returns the number of tagged components.
func (p *Predictor) NumTables() int { return len(p.meta) }

// IUM returns the attached Immediate Update Mimicker, or nil.
func (p *Predictor) IUM() *ium.Buffer { return p.ium }

// Predict implements predictor.Predictor.
func (p *Predictor) Predict(pc uint64, ctx *Ctx) bool {
	bank := uint32(0)
	if p.banks != nil {
		b := p.banks.Select(pc)
		ctx.BimIdx = p.bim.IndexBanked(pc, b, memarray.NumBanks)
		bank = uint32(b)
	} else {
		ctx.BimIdx = p.bim.Index(pc)
	}
	ctx.BimCtr = p.bim.Read(ctx.BimIdx)

	// The index, tag, entry read and provider selection of every tagged
	// component, fully inlined: one ascending pass over the flat fold and
	// constant arrays. The highest-numbered hit becomes the provider, the
	// previous best the alternate — the same pair the descending scan of
	// Section 3.1 selects. Clamping to MaxTables (guaranteed by config
	// validation) lets the compiler drop the bounds checks on the
	// fixed-size ctx arrays.
	folds := p.folds
	if len(folds) > MaxTables {
		folds = folds[:MaxTables]
	}
	meta := p.meta[:len(folds)]
	entries := p.entries
	var hits uint32
	h := uint32(pc >> 2)
	if bank == 0 {
		// Common case (non-interleaved, or bank 0): the bank term is zero,
		// so its variable shift drops out of the loop entirely.
		for i := range folds {
			f := &folds[i]
			mt := &meta[i]
			idx := (h ^ (h >> (mt.idxShift & 31)) ^ f.Idx.Value()) & mt.idxMask
			tg := uint16(h^f.Tag1.Value()^(f.Tag2.Value()<<1)) & mt.tagMask
			e := entries[mt.offset+idx]
			ctx.Ent[i] = uint64(idx) | uint64(tg)<<32 | uint64(uint8(e.ctr))<<48 | uint64(e.u)<<56
			// Branchless hit accumulation: the provider scan becomes a
			// leading-bit count after the loop instead of a data-dependent
			// (and mispredict-prone) in-loop update.
			var hb uint32
			if e.tag == tg {
				hb = 1
			}
			hits |= hb << (uint(i) & 31)
		}
	} else {
		for i := range folds {
			f := &folds[i]
			mt := &meta[i]
			idx := (h^(h>>(mt.idxShift&31))^f.Idx.Value())&mt.idxMask | bank<<(mt.bankShift&31)
			tg := uint16(h^f.Tag1.Value()^(f.Tag2.Value()<<1)) & mt.tagMask
			e := entries[mt.offset+idx]
			ctx.Ent[i] = uint64(idx) | uint64(tg)<<32 | uint64(uint8(e.ctr))<<48 | uint64(e.u)<<56
			var hb uint32
			if e.tag == tg {
				hb = 1
			}
			hits |= hb << (uint(i) & 31)
		}
	}
	// The highest-numbered hit provides, the next highest is the
	// alternate — exactly the descending scan of Section 3.1.
	provider := bits.Len32(hits)
	alt := 0
	if provider > 0 {
		alt = bits.Len32(hits &^ (1 << (uint(provider-1) & 31)))
	}
	ctx.Provider, ctx.Alt = provider, alt
	bimPred := bimodal.Taken(ctx.BimCtr)
	if provider > 0 {
		c := int32(ctx.Ctr(provider - 1))
		ctx.ProvPred = bitutil.TakenSign(c)
		ctx.WeakProv = bitutil.IsWeak(c)
	} else {
		ctx.ProvPred = bimPred
		ctx.WeakProv = false
	}
	if alt > 0 {
		ctx.AltPred = bitutil.TakenSign(int32(ctx.Ctr(alt - 1)))
	} else {
		ctx.AltPred = bimPred
	}
	ctx.TagePred = p.computePrediction(ctx)

	ctx.FinalPred = ctx.TagePred
	ctx.IUMUsed = false
	ctx.IUMHit = false
	if p.ium != nil {
		if c, ok := p.ium.Lookup(ctx.Provider, p.providerIndex(ctx)); ok {
			ctx.IUMHit = true
			ctx.IUMCtr = c
			ctx.FinalPred = c >= 0
			ctx.IUMUsed = ctx.FinalPred != ctx.TagePred
		}
	}
	return ctx.FinalPred
}

// providerIndex returns the physical index of the provider entry (the
// bimodal index when the base predictor provides).
func (p *Predictor) providerIndex(ctx *Ctx) uint32 {
	if ctx.Provider > 0 {
		return ctx.Index(ctx.Provider - 1)
	}
	return ctx.BimIdx
}

// providerSignedCtr returns the provider counter in a signed convention
// (bimodal 0..3 maps to -2..1) together with its width in bits.
func providerSignedCtr(ctx *Ctx) (int32, uint) {
	if ctx.Provider > 0 {
		return int32(ctx.Ctr(ctx.Provider - 1)), CtrBits
	}
	return ctx.BimCtr - 2, 2
}

// computePrediction applies the Section 3.1 algorithm: the provider's sign
// unless the provider counter is weak and USE_ALT_ON_NA is non-negative,
// in which case the alternate prediction is used.
func (p *Predictor) computePrediction(ctx *Ctx) bool {
	if ctx.Provider == 0 {
		return ctx.ProvPred
	}
	if ctx.WeakProv && p.useAlt >= 0 {
		return ctx.AltPred
	}
	return ctx.ProvPred
}

// OnResolve implements predictor.Predictor: speculative history update
// (immediate, as hardware repairs history on mispredictions) and IUM
// bookkeeping.
func (p *Predictor) OnResolve(pc uint64, taken, mispredicted bool, ctx *Ctx) {
	if p.ium != nil {
		base, bits := providerSignedCtr(ctx)
		if ctx.IUMHit {
			base = ctx.IUMCtr
		}
		p.ium.Push(ctx.Provider, p.providerIndex(ctx), ium.NextCtr(base, taken, bits))
		if mispredicted {
			p.ium.OnMispredict()
		}
	}
	p.ghist.Push(taken)
	histories.UpdateAll(p.ghist, p.folds, taken)
}

// Retire implements predictor.Predictor: the Section 3.2 update, performed
// at retire time. With reread the current table contents are consulted
// (scenarios [A]/[C]-mispredict); without, the values captured in ctx at
// prediction time are used and written back blindly (scenario [B]), which
// models the stale-value clobbering of a real fetch-read-only pipeline.
func (p *Predictor) Retire(pc uint64, taken bool, ctx *Ctx, reread bool) {
	provider, alt := ctx.Provider, ctx.Alt
	provPred, altPred, weak := ctx.ProvPred, ctx.AltPred, ctx.WeakProv
	bimCtr := ctx.BimCtr
	// The provider/alternate counters the update consumes, passed by value
	// (the retire path allocates nothing: no read closures, no defer).
	var provCtr, altCtr int32
	if provider > 0 {
		provCtr = int32(ctx.Ctr(provider - 1))
	}
	if alt > 0 {
		altCtr = int32(ctx.Ctr(alt - 1))
	}

	// Entry pointers for the provider and alternate: resolved once and
	// reused by both the read and the write halves of the update.
	var provE, altE *entry

	if reread {
		// Recompute the whole read from current table state at the same
		// indices (on the correct path the retire-time history equals the
		// fetch-time history, so indices and tags are unchanged).
		bimCtr = p.bim.Read(ctx.BimIdx)
		provider, alt = 0, 0
		m := len(p.meta)
		if m > MaxTables {
			m = MaxTables // never taken; lets the compiler drop ctx bounds checks
		}
		for i := m - 1; i >= 0; i-- {
			e := &p.entries[p.meta[i].offset+ctx.Index(i)]
			if e.tag != ctx.Tag(i) {
				continue
			}
			if provider == 0 {
				provider = i + 1
				provE = e
			} else {
				alt = i + 1
				altE = e
				break
			}
		}
		bimPred := bimodal.Taken(bimCtr)
		if provider > 0 {
			provCtr = int32(provE.ctr)
			provPred = bitutil.TakenSign(provCtr)
			weak = bitutil.IsWeak(provCtr)
		} else {
			provPred = bimPred
			weak = false
		}
		if alt > 0 {
			altCtr = int32(altE.ctr)
			altPred = bitutil.TakenSign(altCtr)
		} else {
			altPred = bimPred
		}
	} else {
		if provider > 0 {
			provE = &p.entries[p.meta[provider-1].offset+ctx.Index(provider-1)]
		}
		if alt > 0 {
			altE = &p.entries[p.meta[alt-1].offset+ctx.Index(alt-1)]
		}
	}

	mispredicted := ctx.TagePred != taken

	// (1) Update the provider component's prediction counter; when the
	// provider is weak also train the alternate (helps newly allocated
	// entries hand over cleanly).
	if provider > 0 {
		p.writeCtr(provE, bitutil.SatUpdateSigned(provCtr, taken, CtrBits))
		if weak {
			if alt > 0 {
				p.writeCtr(altE, bitutil.SatUpdateSigned(altCtr, taken, CtrBits))
			} else {
				p.bim.Write(ctx.BimIdx, bimodal.Next(bimCtr, taken))
			}
			// USE_ALT_ON_NA: monitor whether the alternate beats a weak
			// provider.
			if provPred != altPred {
				p.useAlt = bitutil.SatUpdateSigned(p.useAlt, altPred == taken, 4)
			}
		}
		// u is set when the provider was correct and the alternate was
		// wrong (Section 3.2.2).
		if provPred != altPred && provPred == taken {
			p.writeU(provE, 1)
		}
	} else {
		p.bim.Write(ctx.BimIdx, bimodal.Next(bimCtr, taken))
	}

	// (2) Allocate new entries on a misprediction (Section 3.2.1): up to
	// MaxAlloc entries on non-consecutive tables above the provider,
	// chosen among useless (u == 0) entries.
	if mispredicted && provider < len(p.meta) {
		p.allocate(ctx, provider, taken, reread)
	}

	if p.ium != nil {
		p.ium.PopOldest()
	}
}

// writeCtr writes a tagged-entry counter, accounting silent writes. The
// store is unconditional (rewriting an equal byte is free; branching on the
// data-dependent comparison is not) and only the accounting uses it.
func (p *Predictor) writeCtr(e *entry, v int32) {
	eff := e.ctr != int8(v)
	e.ctr = int8(v)
	p.stats.RecordWrite(eff)
}

// writeU writes a tagged-entry useful bit, accounting silent writes.
func (p *Predictor) writeU(e *entry, v uint8) {
	eff := e.u != v
	e.u = v
	p.stats.RecordWrite(eff)
}

// allocate implements the multi-entry allocation policy with the 8-bit
// success/failure monitor driving global u-bit resets. With reread the
// u bits are consulted from current table state, otherwise from the
// fetch-time snapshot in ctx (mirroring the Retire read policy).
func (p *Predictor) allocate(ctx *Ctx, provider int, taken bool, reread bool) {
	m := len(p.meta)
	start := provider + 1
	// Randomise the starting table by one position to avoid systematically
	// starving longer-history tables.
	if start < m && p.rand.Uint64()&1 == 1 {
		start++
	}
	allocated := 0
	for t := start; t <= m && allocated < p.cfg.MaxAlloc; {
		u := ctx.U(t - 1)
		if reread {
			u = p.entries[p.meta[t-1].offset+ctx.Index(t-1)].u
		}
		if u == 0 {
			e := &p.entries[p.meta[t-1].offset+ctx.Index(t-1)]
			e.tag = ctx.Tag(t - 1)
			e.ctr = int8(bitutil.WeakTaken)
			if !taken {
				e.ctr = int8(bitutil.WeakNotTaken)
			}
			e.u = 0
			p.stats.RecordWrite(true)
			allocated++
			p.tick = bitutil.SatDecUnsigned(p.tick) // success
			t += 2                                  // non-consecutive tables
		} else {
			p.tick = bitutil.SatIncUnsigned(p.tick, 8) // failure
			t++
		}
	}
	// Global reset when failures dominate (counter saturated high): one
	// pass over the contiguous entry store.
	if p.tick >= 255 {
		for i := range p.entries {
			p.entries[i].u = 0
		}
		p.tick = 0
	}
}

// AccessStats implements predictor.Predictor.
func (p *Predictor) AccessStats() *memarray.Stats { return p.stats }

// TableBits returns the per-structure storage in bits (bimodal first, then
// each tagged table), for the area/energy model.
func (p *Predictor) TableBits() []int {
	out := []int{p.bim.StorageBits()}
	for i := range p.idxBits {
		out = append(out, (1<<p.idxBits[i])*(CtrBits+1+int(p.cfg.TagBits[i])))
	}
	return out
}

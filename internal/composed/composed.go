// Package composed assembles the paper's full predictors from the main
// TAGE predictor and its side predictors: ISL-TAGE (Section 5: TAGE + IUM
// + loop predictor + global Statistical Corrector) and TAGE-LSC
// (Section 6: TAGE + IUM + Local history Statistical Corrector), plus any
// intermediate stacking used by the incremental experiments ("TAGE+IUM",
// "TAGE+IUM+loop", ...).
//
// The prediction flows exactly as in Figures 6 and 7: the TAGE (+IUM)
// prediction may be overridden by a confident loop predictor, then the
// statistical correctors see the current prediction together with the
// centered TAGE provider counter and may revert it.
package composed

import (
	"fmt"
	"strings"

	"repro/internal/bitutil"
	"repro/internal/looppred"
	"repro/internal/lsc"
	"repro/internal/memarray"
	"repro/internal/predictor"
	"repro/internal/sc"
	"repro/internal/tage"
)

// Config selects the component stack.
type Config struct {
	Name string
	Tage tage.Config

	UseLoop bool
	Loop    looppred.Config

	UseSC bool
	SC    sc.Config

	UseLSC bool
	LSC    lsc.Config
}

// Ctx is the combined pipeline context.
type Ctx struct {
	Tage tage.Ctx
	Loop looppred.Ctx
	SC   sc.Ctx
	LSC  lsc.Ctx
	// Final is the prediction after all side predictors.
	Final bool
	// LoopUsed marks a confident loop override.
	LoopUsed bool
}

// Predictor is a composed predictor.
type Predictor struct {
	cfg  Config
	tage *tage.Predictor
	loop *looppred.Predictor
	sc   *sc.Corrector
	lsc  *lsc.Corrector
}

// New builds the configured stack.
func New(cfg Config) *Predictor { return build(cfg, tage.New(cfg.Tage)) }

// build assembles the stack of cfg around t, building every side
// predictor on t's access stats.
func build(cfg Config, t *tage.Predictor) *Predictor {
	p := &Predictor{cfg: cfg, tage: t}
	stats := t.AccessStats()
	if cfg.UseLoop {
		p.loop = looppred.New(cfg.Loop, stats)
	}
	if cfg.UseSC {
		p.sc = sc.New(cfg.SC, stats)
	}
	if cfg.UseLSC {
		p.lsc = lsc.New(cfg.LSC, stats)
	}
	return p
}

// Sibling implements predictor.Sibling through the TAGE: the stack it
// returns shares this stack's TAGE front end and owns everything else —
// a fresh TAGE core and a fresh loop predictor, SC and LSC, whose
// histories are their own. The lanes keep the order tage's Sibling
// documents.
func (p *Predictor) Sibling() predictor.Predictor[Ctx] {
	return build(p.cfg, p.tage.Sibling().(*tage.Predictor))
}

// Name implements predictor.Predictor.
func (p *Predictor) Name() string {
	return label(p.cfg.Name, p.tage.IUM() != nil, p.loop != nil, p.sc != nil, p.lsc != nil)
}

// label is the name of a stack: its configured Name, else its components.
func label(name string, ium, loop, sc, lsc bool) string {
	if name != "" {
		return name
	}
	parts := []string{"TAGE"}
	if ium {
		parts = append(parts, "IUM")
	}
	if loop {
		parts = append(parts, "loop")
	}
	if sc {
		parts = append(parts, "SC")
	}
	if lsc {
		parts = append(parts, "LSC")
	}
	return strings.Join(parts, "+")
}

// StorageBits implements predictor.Predictor.
func (p *Predictor) StorageBits() int {
	bits := p.tage.StorageBits()
	if p.loop != nil {
		bits += p.loop.StorageBits()
	}
	if p.sc != nil {
		bits += p.sc.StorageBits()
	}
	if p.lsc != nil {
		bits += p.lsc.StorageBits()
	}
	return bits
}

// StorageBits returns the storage budget of the stack New(c) builds, from
// the configuration alone: no table is allocated.
func (c Config) StorageBits() int {
	bits := c.Tage.StorageBits()
	if c.UseLoop {
		bits += c.Loop.StorageBits()
	}
	if c.UseSC {
		bits += c.SC.StorageBits()
	}
	if c.UseLSC {
		bits += c.LSC.StorageBits()
	}
	return bits
}

// Label returns the Name the stack New(c) builds reports.
func (c Config) Label() string {
	return label(c.Name, c.Tage.UseIUM, c.UseLoop, c.UseSC, c.UseLSC)
}

// Tage exposes the core TAGE predictor (for experiment instrumentation).
func (p *Predictor) Tage() *tage.Predictor { return p.tage }

// LoopPredictor exposes the loop side predictor, or nil.
func (p *Predictor) LoopPredictor() *looppred.Predictor { return p.loop }

// SC exposes the global Statistical Corrector, or nil.
func (p *Predictor) SC() *sc.Corrector { return p.sc }

// LSC exposes the Local Statistical Corrector, or nil.
func (p *Predictor) LSC() *lsc.Corrector { return p.lsc }

// tageCtrCentered returns the centered provider counter (2*ctr+1), the
// confidence-carrying term added to the corrector sums with weight 8.
func tageCtrCentered(c *tage.Ctx) int32 {
	if c.Provider > 0 {
		return bitutil.Centered(int32(c.Ctr(c.Provider - 1)))
	}
	// Map the 2-bit bimodal counter (0..3) onto a signed value (-2..1).
	return bitutil.Centered(c.BimCtr - 2)
}

// Predict implements predictor.Predictor.
func (p *Predictor) Predict(pc uint64, ctx *Ctx) bool {
	pred := p.tage.Predict(pc, &ctx.Tage)
	ctx.LoopUsed = false
	if p.loop != nil {
		p.loop.Predict(pc, &ctx.Loop)
		if ctx.Loop.Valid {
			pred = ctx.Loop.Pred
			ctx.LoopUsed = true
		}
	}
	cc := tageCtrCentered(&ctx.Tage)
	if p.sc != nil {
		pred = p.sc.Predict(pc, pred, cc, &ctx.SC)
	}
	if p.lsc != nil {
		pred = p.lsc.Predict(pc, pred, cc, &ctx.LSC)
	}
	ctx.Final = pred
	return pred
}

// OnResolve implements predictor.Predictor.
func (p *Predictor) OnResolve(pc uint64, taken, mispredicted bool, ctx *Ctx) {
	p.tage.OnResolve(pc, taken, mispredicted, &ctx.Tage)
	if p.loop != nil {
		p.loop.OnResolve(pc, taken, &ctx.Loop)
	}
	if p.sc != nil {
		p.sc.OnResolve(taken)
	}
	if p.lsc != nil {
		p.lsc.OnResolve(taken, &ctx.LSC)
	}
}

// Retire implements predictor.Predictor.
func (p *Predictor) Retire(pc uint64, taken bool, ctx *Ctx, reread bool) {
	p.tage.Retire(pc, taken, &ctx.Tage, reread)
	if p.loop != nil {
		useful := ctx.Loop.Valid && ctx.Loop.Pred == taken && ctx.Tage.FinalPred != taken
		p.loop.Retire(pc, taken, &ctx.Loop, useful)
		if ctx.Final != taken {
			p.loop.Allocate(pc, taken)
		}
	}
	if p.sc != nil {
		p.sc.Retire(taken, &ctx.SC, reread)
	}
	if p.lsc != nil {
		p.lsc.Retire(taken, &ctx.LSC, reread)
	}
}

// AccessStats implements predictor.Predictor.
func (p *Predictor) AccessStats() *memarray.Stats { return p.tage.AccessStats() }

// --- Named configurations from the paper ---

// TageIUM returns the base TAGE predictor of cfg with an IUM attached.
func TageIUM(tcfg tage.Config, name string) Config {
	tcfg.UseIUM = true
	return Config{Name: name, Tage: tcfg}
}

// ISLTAGE returns the Section 5 stack: TAGE + IUM + loop predictor +
// global-history Statistical Corrector.
func ISLTAGE(tcfg tage.Config, name string) Config {
	tcfg.UseIUM = true
	return Config{
		Name:    name,
		Tage:    tcfg,
		UseLoop: true,
		UseSC:   true,
	}
}

// TAGELSC returns the Section 6 stack: TAGE + IUM + Local Statistical
// Corrector. The paper's budget-matched variant halves table T7 of the
// reference TAGE; use tage.Reference() adjusted by the caller.
func TAGELSC(tcfg tage.Config, name string) Config {
	tcfg.UseIUM = true
	return Config{
		Name:   name,
		Tage:   tcfg,
		UseLSC: true,
	}
}

// FullStack returns TAGE + IUM + loop + SC + LSC (the Section 6.1 "on top
// of everything" measurement point).
func FullStack(tcfg tage.Config, name string) Config {
	tcfg.UseIUM = true
	return Config{
		Name:    name,
		Tage:    tcfg,
		UseLoop: true,
		UseSC:   true,
		UseLSC:  true,
	}
}

// Budget512K returns the reference TAGE shrunk to leave room for the LSC
// within 512 Kbits (Section 6.1: "reducing the size of Table T7 to 2K
// entries").
func Budget512K() tage.Config {
	cfg := tage.Reference()
	cfg.TableLogs = append([]uint(nil), cfg.TableLogs...)
	cfg.TableLogs[6]-- // T7: 4K -> 2K entries
	cfg.Name = "TAGE-ref-T7half"
	return cfg
}

// String summarises the configuration.
func (c Config) String() string {
	return fmt.Sprintf("%s (loop=%v sc=%v lsc=%v)", c.Name, c.UseLoop, c.UseSC, c.UseLSC)
}

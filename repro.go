// Package repro is a from-scratch Go reproduction of "A New Case for the
// TAGE Branch Predictor" (André Seznec, MICRO 2011): the TAGE conditional
// branch predictor and every system the paper builds on or compares
// against — the ISL-TAGE and TAGE-LSC composite predictors (IUM, loop
// predictor, global and local Statistical Correctors), the gshare, GEHL,
// piecewise-linear and fused-two-level baselines, a CBP-3-style
// trace-driven pipeline simulator with the paper's four update-timing
// scenarii, a 4-way bank-interleaving hardware model, a CACTI-like
// area/energy model, and a synthetic 40-trace benchmark suite.
//
// The package is a facade over the internal implementation: construct a
// predictor Model, generate (or load) traces, and run simulations.
//
//	model := repro.TAGELSC512K()
//	tr := repro.MustGenerateTrace("INT01", 1_000_000)
//	res := model.Run(tr, repro.Options{Scenario: repro.ScenarioA})
//	fmt.Println(res.MPKI, res.MPPKI)
//
// Models are identified by declarative specs (see ParseSpec and the
// README "Model specs" section): the named constructors above are sugar
// over a parseable configuration grammar, so arbitrary points of the
// design space — table counts, history series, tag widths, composite
// stacks, storage budgets — build through the same lifecycle:
//
//	spec, _ := repro.ParseSpec("tage:tables=9,hist=6:500")
//	model, _ := spec.Build()   // spec.Canonical() identifies it everywhere
//
// Every table and figure of the paper can be regenerated through
// RunExperiment (experiment ids E1..E15, indexed in internal/experiments
// and surfaced by the cmd/bptables binary), and swept at scale through
// the bench harness (BenchMatrix, cmd/bpbench).
package repro

import (
	"fmt"

	"repro/internal/composed"
	"repro/internal/ftlpp"
	"repro/internal/gehl"
	"repro/internal/gshare"
	"repro/internal/memarray"
	"repro/internal/neural"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
)

// Re-exported simulation types.
type (
	// Trace is a materialised branch trace.
	Trace = trace.Trace
	// Branch is one dynamic conditional branch.
	Branch = trace.Branch
	// Options configures a simulation run.
	Options = sim.Options
	// Checkpoint is a mid-trace (or end-of-trace) simulation snapshot:
	// assign one to Options.Resume to warm-start a run, receive them via
	// Options.OnCheckpoint. A blob handed to OnCheckpoint is valid until
	// the callback returns (the runner reuses its buffer for the next
	// checkpoint), so a callback that keeps one copies it.
	Checkpoint = sim.Checkpoint
	// Result is the outcome of simulating one trace. Its Also holds the
	// results of Options.Also in a slice the runner reuses: it is valid
	// until that runner's next call, so a caller that keeps it copies it.
	Result = sim.Result
	// Suite aggregates per-trace results.
	Suite = sim.Suite
	// AccessStats counts a run's predictor accesses (Result.Access).
	AccessStats = memarray.Stats
	// Scenario selects the update-timing policy of Section 4.1.2.
	Scenario = predictor.Scenario
)

// Update-timing scenarii (Section 4.1.2).
const (
	// ScenarioI is the oracle immediate update.
	ScenarioI = predictor.ScenarioI
	// ScenarioA re-reads the tables at retire time.
	ScenarioA = predictor.ScenarioA
	// ScenarioB never re-reads (fetch-time values only).
	ScenarioB = predictor.ScenarioB
	// ScenarioC re-reads only on mispredictions.
	ScenarioC = predictor.ScenarioC
)

// Model is a branch predictor configuration that can be instantiated and
// simulated. Each Run starts from cold state.
type Model struct {
	name string
	bits int
	mk   func() instance
	// newRunner builds a pooled run function over a fresh predictor (see
	// sim.Pooled).
	newRunner func() func(tr *Trace, opt Options) Result
}

// instance abstracts over the per-predictor context type.
type instance interface {
	predict(pc uint64) bool
	update(pc uint64, taken bool)
}

type typedInstance[C any] struct {
	p       predictor.Predictor[C]
	ctx     C
	pending uint64
	valid   bool
	pred    bool
}

func (ti *typedInstance[C]) predict(pc uint64) bool {
	ti.pred = ti.p.Predict(pc, &ti.ctx)
	ti.pending = pc
	ti.valid = true
	return ti.pred
}

func (ti *typedInstance[C]) update(pc uint64, taken bool) {
	if !ti.valid || ti.pending != pc {
		ti.predict(pc)
	}
	ti.valid = false
	ti.p.OnResolve(pc, taken, ti.pred != taken, &ti.ctx)
	ti.p.Retire(pc, taken, &ti.ctx, true)
}

// newModel declares a model by the name and storage budget its
// configuration reports, so declaring, resolving or listing a model
// allocates no tables: mk runs only where a predictor will run (Run,
// NewRunner, NewSession). Each predictor built is held to the
// declaration, so a budget that drifts from the tables a predictor
// allocates fails its first run instead of mislabelling its records.
func newModel[C any](name string, bits int, mk func() predictor.Predictor[C]) *Model {
	build := func() predictor.Predictor[C] {
		p := mk()
		if p.Name() != name || p.StorageBits() != bits {
			panic(fmt.Sprintf("repro: model %s (%d bits) built predictor %s (%d bits)", name, bits, p.Name(), p.StorageBits()))
		}
		return p
	}
	return &Model{
		name:      name,
		bits:      bits,
		mk:        func() instance { return &typedInstance[C]{p: build()} },
		newRunner: func() func(tr *Trace, opt Options) Result { return sim.Pooled(build()) },
	}
}

// tageModel declares a TAGE configuration.
func tageModel(cfg tage.Config) *Model {
	return newModel(cfg.Label(), cfg.StorageBits(), func() predictor.Predictor[tage.Ctx] {
		return tage.New(cfg)
	})
}

// composedModel declares a composite-stack configuration.
func composedModel(cfg composed.Config) *Model {
	return newModel(cfg.Label(), cfg.StorageBits(), func() predictor.Predictor[composed.Ctx] {
		return composed.New(cfg)
	})
}

// gshareModel declares a gshare of 2^log counters.
func gshareModel(log uint) *Model {
	return newModel(gshare.Label(log), gshare.StorageBits(log), func() predictor.Predictor[gshare.Ctx] {
		return gshare.New(log)
	})
}

// gehlModel declares a GEHL configuration.
func gehlModel(cfg gehl.Config) *Model {
	return newModel(cfg.Label(), cfg.StorageBits(), func() predictor.Predictor[gehl.Ctx] {
		return gehl.New(cfg)
	})
}

// Name returns the configuration label.
func (m *Model) Name() string { return m.name }

// StorageBits returns the predictor storage budget in bits.
func (m *Model) StorageBits() int { return m.bits }

// Run simulates the model over a trace from cold state.
func (m *Model) Run(tr *Trace, opt Options) Result {
	return m.newRunner()(tr, opt)
}

// NewRunner returns a reusable run function backed by one pooled predictor
// instance: every call starts from cold state (the predictor is Reset
// between runs) but reuses the warmed table storage and simulation
// buffers, so repeated runs allocate nothing. Results are byte-identical
// to Model.Run. A result's Also (see Options.Also) is valid only until
// the runner's next call, which reuses the slice. The returned function
// is not safe for concurrent use; create one runner per goroutine.
func (m *Model) NewRunner() func(tr *Trace, opt Options) Result {
	return m.newRunner()
}

// Session is a stateful predictor handle for direct use: call Predict to
// obtain a prediction and Train to feed the architectural outcome
// (immediate-update semantics, suitable for functional exploration).
type Session struct{ inst instance }

// NewSession instantiates the model for interactive use.
func (m *Model) NewSession() *Session { return &Session{inst: m.mk()} }

// Predict returns the predicted direction for a branch at pc.
func (s *Session) Predict(pc uint64) bool { return s.inst.predict(pc) }

// Train feeds the architectural outcome of the branch at pc, updating the
// predictor immediately.
func (s *Session) Train(pc uint64, taken bool) { s.inst.update(pc, taken) }

// --- the paper's predictor configurations ---

// ReferenceTAGE is the Section 3.4 reference predictor: 13 components,
// (6,2000) geometric series, 65,408 bytes.
func ReferenceTAGE() *Model { return tageModel(tage.Reference()) }

// TAGEWithIUM is the reference TAGE with the Immediate Update Mimicker of
// Section 5.1.
func TAGEWithIUM() *Model {
	return composedModel(composed.TageIUM(tage.Reference(), "TAGE+IUM"))
}

// ISLTAGE is the Section 5 predictor: TAGE + IUM + loop predictor +
// global-history Statistical Corrector.
func ISLTAGE() *Model {
	return composedModel(composed.ISLTAGE(tage.Reference(), "ISL-TAGE"))
}

// TAGELSC512K is the Section 6.1 budget-matched TAGE-LSC: the reference
// TAGE with table T7 halved plus the 30Kbit Local Statistical Corrector,
// within 512 Kbits.
func TAGELSC512K() *Model {
	return composedModel(composed.TAGELSC(composed.Budget512K(), "TAGE-LSC"))
}

// TAGELSCInterleaved is the Section 7 cost-effective TAGE-LSC: 4-way
// bank-interleaved single-ported tables for both the TAGE and the local
// components.
func TAGELSCInterleaved() *Model {
	tcfg := composed.Budget512K()
	tcfg.Interleaved = true
	c := composed.TAGELSC(tcfg, "TAGE-LSC-interleaved")
	c.LSC.Interleaved = true
	return composedModel(c)
}

// ScaledTAGE returns the reference TAGE with all component sizes scaled by
// 2^deltaLog (the Figure 9 protocol); deltaLog 0 is 512Kbit.
func ScaledTAGE(deltaLog int) *Model {
	return tageModel(tage.Scale(tage.Reference(), deltaLog))
}

// ScaledTAGELSC returns TAGE-LSC with the TAGE component sizes scaled by
// 2^deltaLog, the other half of the Figure 9 sweep; deltaLog 0 is the
// 512Kbit budget match.
func ScaledTAGELSC(deltaLog int) *Model {
	return composedModel(composed.TAGELSC(
		tage.Scale(composed.Budget512K(), deltaLog),
		fmt.Sprintf("TAGE-LSC%+d", deltaLog)))
}

// Gshare512K is the 512Kbit gshare baseline of Section 4.1.
func Gshare512K() *Model { return gshareModel(18) }

// GEHL520K is the 520Kbit GEHL baseline of Section 4.1.
func GEHL520K() *Model { return gehlModel(gehl.Config{}) }

// OHSNAP is the piecewise-linear (OH-SNAP-like) neural comparator of
// Section 6.3.
func OHSNAP() *Model {
	cfg := neural.Config{}
	return newModel(cfg.Label(), cfg.StorageBits(), func() predictor.Predictor[neural.Ctx] {
		return neural.New(cfg)
	})
}

// FTLPP is the fused two-level (FTL++-like) comparator of Section 6.3.
func FTLPP() *Model {
	cfg := ftlpp.Config{}
	return newModel(cfg.Label(), cfg.StorageBits(), func() predictor.Predictor[ftlpp.Ctx] {
		return ftlpp.New(cfg)
	})
}

// Models returns every named configuration, keyed by a stable identifier
// usable from command-line tools.
func Models() map[string]func() *Model {
	return map[string]func() *Model{
		"tage":            ReferenceTAGE,
		"tage-ium":        TAGEWithIUM,
		"isl-tage":        ISLTAGE,
		"tage-lsc":        TAGELSC512K,
		"tage-lsc-banked": TAGELSCInterleaved,
		"gshare":          Gshare512K,
		"gehl":            GEHL520K,
		"ohsnap":          OHSNAP,
		"ftlpp":           FTLPP,
	}
}

// Package models declares every predictor model once. It holds the
// model-spec grammar (spec.go), the table of named models, and the
// adapter that turns a configuration into a runnable Model. Every caller
// resolves models here: the repro facade, the CLIs, farm workers and the
// experiments E1–E15, so a spec string names one predictor everywhere.
//
// A model's name and storage budget come from its configuration, so
// declaring, resolving or listing a model builds no predictor. The
// adapter builds one only where it will run, and holds it to the
// declaration.
package models

import (
	"fmt"

	"repro/internal/composed"
	"repro/internal/ftlpp"
	"repro/internal/gehl"
	"repro/internal/gshare"
	"repro/internal/harness"
	"repro/internal/neural"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
)

// Model is a branch predictor configuration that can be instantiated and
// simulated. Each Run starts from cold state.
type Model struct {
	name string
	bits int
	mk   func() instance
	// newRunner builds a pooled run function over a fresh predictor (see
	// sim.Pooled).
	newRunner func() func(tr *trace.Trace, opt sim.Options) sim.Result
}

// declare is the adapter every model goes through: it declares a model
// by the name and storage budget its configuration reports, and mk runs
// only where a predictor will run (Run, NewRunner, NewSession). Each
// predictor built is held to the declaration, so a budget that drifts
// from the tables a predictor allocates fails its first run instead of
// mislabelling its records.
func declare[C any](name string, bits int, mk func() predictor.Predictor[C]) *Model {
	build := func() predictor.Predictor[C] {
		p := mk()
		if p.Name() != name || p.StorageBits() != bits {
			panic(fmt.Sprintf("models: model %s (%d bits) built predictor %s (%d bits)", name, bits, p.Name(), p.StorageBits()))
		}
		return p
	}
	return &Model{
		name:      name,
		bits:      bits,
		mk:        func() instance { return &typedInstance[C]{p: build()} },
		newRunner: func() func(tr *trace.Trace, opt sim.Options) sim.Result { return sim.Pooled(build()) },
	}
}

func tageModel(cfg tage.Config) *Model {
	return declare(cfg.Label(), cfg.StorageBits(), func() predictor.Predictor[tage.Ctx] { return tage.New(cfg) })
}

func composedModel(cfg composed.Config) *Model {
	return declare(cfg.Label(), cfg.StorageBits(), func() predictor.Predictor[composed.Ctx] { return composed.New(cfg) })
}

func gshareModel(log uint) *Model {
	return declare(gshare.Label(log), gshare.StorageBits(log), func() predictor.Predictor[gshare.Ctx] { return gshare.New(log) })
}

func gehlModel(cfg gehl.Config) *Model {
	return declare(cfg.Label(), cfg.StorageBits(), func() predictor.Predictor[gehl.Ctx] { return gehl.New(cfg) })
}

// Name returns the configuration label.
func (m *Model) Name() string { return m.name }

// StorageBits returns the predictor storage budget in bits.
func (m *Model) StorageBits() int { return m.bits }

// Run simulates the model over a trace from cold state.
func (m *Model) Run(tr *trace.Trace, opt sim.Options) sim.Result {
	return m.newRunner()(tr, opt)
}

// NewRunner returns a reusable run function backed by one pooled predictor
// instance: every call starts from cold state (the predictor is Reset
// between runs) but reuses the warmed table storage and simulation
// buffers, so repeated runs allocate nothing. Results are byte-identical
// to Model.Run. A result's Also (see Options.Also) is valid only until
// the runner's next call, which reuses the slice. The returned function
// is not safe for concurrent use; create one runner per goroutine.
func (m *Model) NewRunner() func(tr *trace.Trace, opt sim.Options) sim.Result {
	return m.newRunner()
}

// NewPredictor builds the model's predictor, a predictor.Predictor[C]
// over its configuration's context type C, for callers that drive one
// directly.
func (m *Model) NewPredictor() any { return m.mk().predictor() }

// harnessModel is the model as the harness runs it, keyed by name.
func (m *Model) harnessModel(name string) harness.Model {
	return harness.Model{Name: name, StorageBits: m.bits, Run: m.Run, NewRunner: m.newRunner}
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

// instance abstracts over the per-predictor context type.
type instance interface {
	predict(pc uint64) bool
	update(pc uint64, taken bool)
	predictor() any
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

func (ti *typedInstance[C]) predictor() any { return ti.p }

func (ti *typedInstance[C]) update(pc uint64, taken bool) {
	if !ti.valid || ti.pending != pc {
		ti.predict(pc)
	}
	ti.valid = false
	ti.p.OnResolve(pc, taken, ti.pred != taken, &ti.ctx)
	ti.p.Retire(pc, taken, &ti.ctx, true)
}

// namedModel is one row of the named-model table.
type namedModel struct {
	name string
	// explicit is the parameterised spelling a field rewrite suggests
	// for a named model that has no kind of its own.
	explicit string
	model    func() *Model
	// scale, when non-nil, declares the model with every table budget
	// scaled by 2^d (the Figure 9 protocol); d = 0 keeps the budget.
	scale func(d int) *Model
}

// named is the one table of named models, sorted by name: each row is a
// configuration of the paper.
var named = []namedModel{
	{name: "ftlpp", model: func() *Model { // the FTL++ comparator of §6.3
		cfg := ftlpp.Config{}
		return declare(cfg.Label(), cfg.StorageBits(), func() predictor.Predictor[ftlpp.Ctx] { return ftlpp.New(cfg) })
	}},
	{name: "gehl", model: func() *Model { return gehlModel(gehl.Config{}) }}, // 520 Kbit, §4.1
	{name: "gshare", model: func() *Model { return gshareModel(18) }},        // 512 Kbit, §4.1
	{name: "isl-tage", explicit: "composed:tage+ium+loop+gsc", model: func() *Model { // §5
		return composedModel(composed.ISLTAGE(tage.Reference(), "ISL-TAGE"))
	}},
	{name: "ohsnap", model: func() *Model { // the OH-SNAP comparator of §6.3
		cfg := neural.Config{}
		return declare(cfg.Label(), cfg.StorageBits(), func() predictor.Predictor[neural.Ctx] { return neural.New(cfg) })
	}},
	{name: "tage", model: func() *Model { return tageModel(tage.Reference()) }, // §3.4
		scale: func(d int) *Model { return tageModel(tage.Scale(tage.Reference(), d)) }},
	{name: "tage-ium", explicit: "composed:tage+ium", model: func() *Model { // §5.1
		return composedModel(composed.TageIUM(tage.Reference(), "TAGE+IUM"))
	}},
	{name: "tage-lsc", explicit: "composed:tage+ium+lsc,…", // §6.1, T7 halved
		model: func() *Model { return composedModel(composed.TAGELSC(composed.Budget512K(), "TAGE-LSC")) },
		scale: func(d int) *Model {
			return composedModel(composed.TAGELSC(tage.Scale(composed.Budget512K(), d), fmt.Sprintf("TAGE-LSC%+d", d)))
		}},
	{name: "tage-lsc-banked", explicit: "composed:tage+ium+lsc,…", model: func() *Model { // §7
		tcfg := composed.Budget512K()
		tcfg.Interleaved = true
		c := composed.TAGELSC(tcfg, "TAGE-LSC-interleaved")
		c.LSC.Interleaved = true
		return composedModel(c)
	}},
}

// lookup returns the named model called name, or nil.
func lookup(name string) *namedModel {
	for i := range named {
		if named[i].name == name {
			return &named[i]
		}
	}
	return nil
}

// Names lists the named models in sorted order.
func Names() []string {
	out := make([]string, len(named))
	for i, n := range named {
		out[i] = n.name
	}
	return out
}

// ScalableNames lists the named models a storage delta scales, sorted.
func ScalableNames() []string {
	var out []string
	for _, n := range named {
		if n.scale != nil {
			out = append(out, n.name)
		}
	}
	return out
}

// Resolve resolves a model spec to the harness model sweeps run, named
// and keyed by its canonical spec. It is the ModelResolver of bpbench,
// farm workers and the experiments. A spec whose kind scales and that
// carries no delta has the Scale hook a deltaLog axis expands through:
// the scaled variant is the spec with that delta. A spec that already
// carries a delta has none, so Matrix.Expand refuses to scale it again.
func Resolve(s string) (harness.Model, error) {
	spec, err := ParseSpec(s)
	if err != nil {
		return harness.Model{}, err
	}
	return spec.resolve(), nil
}

func (s Spec) resolve() harness.Model {
	canon := s.Canonical()
	h := s.build().harnessModel(canon)
	h.Spec = canon
	if !s.hasDelta && s.CanScale() {
		h.Scale = func(d int) harness.Model {
			scaled, _ := s.WithDelta(d) // cannot fail: s scales
			return scaled.resolve()
		}
	}
	return h
}

// Composed declares a composite stack that no spec expresses as a
// harness model named name. E9's ISL-TAGE with a five-table SC and E10's
// history-series cores are such stacks. The model has no Spec, so a wire
// job cannot rebuild its cells.
func Composed(name string, cfg composed.Config) harness.Model {
	return composedModel(cfg).harnessModel(name)
}

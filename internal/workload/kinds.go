package workload

// The parameterised generator kinds behind the trace-spec grammar: the
// H2P taxonomy from "Branch Prediction Is Not a Solved Problem" as
// knobs instead of a closed benchmark list. Each kind is a small
// program template over the same node/behaviour machinery the 40 named
// benchmarks use, so a spec like `loopy:trip=100,jitter=8#7` is exactly
// as deterministic and regenerable as `INT01`.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/grammar"
	"repro/internal/rng"
)

// kindOrder lists the generator kinds in documentation order.
var kindOrder = []string{"loopy", "callret", "datadep", "phased", "ctxflush", "mix"}

// traceKindDef describes one generator kind: its fields (canonical
// order, defaults, validation) and the program template.
type traceKindDef struct {
	kind    string
	doc     string
	fields  grammar.Fields
	program func(ts TraceSpec, b *builder) node
}

// traceGrammar is the trace grammar as the shared spec machinery sees
// it: its generator kinds and their fields.
var traceGrammar = grammar.Grammar{
	Name:  "workload",
	Kinds: kindOrder,
	Fields: func(kind string) grammar.Fields {
		if def := traceKindDefs[kind]; def != nil {
			return def.fields
		}
		return nil
	},
}

// tFloatField declares a float field with inclusive bounds; the
// canonical form is Go's shortest round-trip rendering.
func tFloatField(key string, min, max float64, def string) grammar.Field {
	return grammar.Field{
		Key:     key,
		Default: def,
		Normalise: func(v string) (string, error) {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				return "", fmt.Errorf("want a number, got %q", v)
			}
			if f < min || f > max {
				return "", fmt.Errorf("%g out of range [%g, %g]", f, min, max)
			}
			if f == 0 {
				f = 0 // -0 and 0 generate one workload: spell both "0"
			}
			return strconv.FormatFloat(f, 'g', -1, 64), nil
		},
	}
}

// fieldInt reads an integer field from a spec, falling back to the
// kind's default. Specs are validated at parse time, so a conversion
// failure here is a programming error.
func (s TraceSpec) fieldInt(key string) int {
	v, ok := s.Field(key)
	if !ok {
		v = traceKindDefs[s.kind].fields.Find(key).Default
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		panic(fmt.Sprintf("workload: kind %q field %q: non-integer canonical value %q", s.kind, key, v))
	}
	return n
}

// fieldFloat reads a float field from a spec with its default.
func (s TraceSpec) fieldFloat(key string) float64 {
	v, ok := s.Field(key)
	if !ok {
		v = traceKindDefs[s.kind].fields.Find(key).Default
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		panic(fmt.Sprintf("workload: kind %q field %q: non-numeric canonical value %q", s.kind, key, v))
	}
	return f
}

// traceKindDefs registers the kinds. Populated in init (the program
// templates read defaults back out of the registry, which the compiler
// would reject as an initialization cycle in a var initializer); mix
// derives its component-weight fields from kindOrder.
var traceKindDefs map[string]*traceKindDef

func init() {
	defs := map[string]*traceKindDef{
		"loopy": {
			kind: "loopy",
			doc:  "trip-count loops with irregular bodies: the loop predictor's territory, jitter defeats it",
			fields: grammar.Fields{
				grammar.Int("trip", 1, 1_000_000, "24"),
				grammar.Int("jitter", 0, 1_000_000, "0"),
				grammar.Int("body", 0, 64, "2"),
				grammar.Int("sites", 1, 64, "4"),
			},
			program: loopyProgram,
		},
		"callret": {
			kind: "callret",
			doc:  "deep call/return trees: history churn from fan-out calls and data-dependent returns",
			fields: grammar.Fields{
				grammar.Int("depth", 1, 32, "8"),
				grammar.Int("fan", 1, 8, "3"),
				tFloatField("ret", 0, 1, "0.3"),
			},
			program: callretProgram,
		},
		"datadep": {
			kind: "datadep",
			doc:  "statistically biased, history-uncorrelated branches: the Statistical Corrector's target class",
			fields: grammar.Fields{
				grammar.Int("sites", 1, 256, "8"),
				tFloatField("bias", 0.5, 1, "0.6"),
				grammar.Int("filler", 0, 64, "4"),
			},
			program: datadepProgram,
		},
		"phased": {
			kind: "phased",
			doc:  "hot/cold phase transitions: distinct programs alternate every `period` branches",
			fields: grammar.Fields{
				grammar.Int("period", 16, 1<<30, "8192"),
				grammar.Int("phases", 2, 16, "4"),
			},
			program: phasedProgram,
		},
		"ctxflush": {
			kind: "ctxflush",
			doc:  "periodic context-switch history pollution: bursts of alien branches every `period` branches",
			fields: grammar.Fields{
				grammar.Int("period", 64, 1<<30, "50000"),
				grammar.Int("burst", 1, 4096, "64"),
			},
			program: ctxflushProgram,
		},
	}
	mix := &traceKindDef{
		kind:    "mix",
		doc:     "weighted composition of the other kinds (at each step one component runs, chosen by weight)",
		program: mixProgram,
	}
	for _, k := range kindOrder {
		if k == "mix" {
			continue
		}
		mix.fields = append(mix.fields, grammar.Int(k, 1, 100, ""))
	}
	defs["mix"] = mix
	traceKindDefs = defs
}

// --- program structure for the new kinds ---

// callTree emits a recursive call/return shape: at each level a
// data-dependent number of calls fan out (call branch taken per call,
// then not-taken to leave the level), and each matching return branch's
// direction is itself data-dependent — the deep-call-stack history
// churn that return-address-correlated predictors ride and pure global
// history predictors drown in.
type callTree struct {
	callPC []uint64
	retPC  []uint64
	leaf   node
	fan    int
	retP   float64
	r      *rng.Xoshiro
}

func (c *callTree) run(e *emitter) { c.walk(e, 0) }

func (c *callTree) walk(e *emitter, lvl int) {
	if e.full() {
		return
	}
	if lvl == len(c.callPC) {
		c.leaf.run(e)
		return
	}
	calls := c.r.Intn(c.fan + 1)
	for i := 0; i < calls && !e.full(); i++ {
		e.emit(c.callPC[lvl], true)
		c.walk(e, lvl+1)
		e.emit(c.retPC[lvl], c.r.Bool(c.retP))
	}
	e.emit(c.callPC[lvl], false)
}

// phaser dispatches on elapsed trace position: the running child flips
// every `period` emitted branches, so a warmed predictor faces a cold
// working set at each boundary — the Figure 3 delayed-update stress at
// program scale rather than per-site scale.
type phaser struct {
	period   int
	children []node
}

func (p *phaser) run(e *emitter) {
	p.children[(len(e.buf)/p.period)%len(p.children)].run(e)
}

// flusher injects a burst of effectively random alien branches every
// `period` emitted branches — a context switch's worth of history
// pollution without an explicit flush operation.
type flusher struct {
	period int
	burst  int
	pcs    []uint64
	r      *rng.Xoshiro
	next   int
}

func (f *flusher) run(e *emitter) {
	if len(e.buf) < f.next {
		return
	}
	f.next = len(e.buf) + f.period
	for i := 0; i < f.burst && !e.full(); i++ {
		e.emit(f.pcs[i%len(f.pcs)], f.r.Bool(0.5))
	}
}

// --- kind programs ---

// loopyProgram: `sites` loops of `trip` iterations (±jitter) whose
// bodies scramble control flow through `body` silent-signature steps.
// With jitter=0 this is the loop predictor's best case; jitter moves the
// exit branch beyond any trip-count table.
func loopyProgram(ts TraceSpec, b *builder) node {
	trip := ts.fieldInt("trip")
	jitter := ts.fieldInt("jitter")
	bodyLen := ts.fieldInt("body")
	sites := ts.fieldInt("sites")

	mkBody := func() node {
		if bodyLen == 0 {
			return nil
		}
		s := make(seq, 0, bodyLen)
		for i := 0; i < bodyLen; i++ {
			if i%2 == 0 {
				s = append(s, scramble(b))
			} else {
				s = append(s, b.site(always(i%4 < 3)))
			}
		}
		return s
	}
	loops := make([]node, sites)
	for i := range loops {
		if jitter > 0 {
			loops[i] = b.jitterLoop(trip, jitter, mkBody())
		} else {
			loops[i] = b.fixedLoop(trip, mkBody())
		}
	}
	if sites == 1 {
		return loops[0]
	}
	return b.cycle(2*sites+1, loops...)
}

// callretProgram: a depth-`depth` call tree with fan-out `fan` and
// return-branch taken-probability `ret`, over a predictable leaf.
func callretProgram(ts TraceSpec, b *builder) node {
	depth := ts.fieldInt("depth")
	fan := ts.fieldInt("fan")
	retP := ts.fieldFloat("ret")

	callPC := make([]uint64, depth)
	retPC := make([]uint64, depth)
	for i := 0; i < depth; i++ {
		callPC[i] = b.pc()
		retPC[i] = b.pc()
	}
	return &callTree{
		callPC: callPC,
		retPC:  retPC,
		leaf:   seq{b.pat(6), b.bern(0.98)},
		fan:    fan,
		retP:   retP,
		r:      b.r.Fork(0xca11),
	}
}

// datadepProgram: `sites` independent branches taken with probability
// `bias` and zero correlation to history, each padded with `filler`
// steady branches so the noise is diluted the way real code dilutes it.
func datadepProgram(ts TraceSpec, b *builder) node {
	sites := ts.fieldInt("sites")
	bias := ts.fieldFloat("bias")
	filler := ts.fieldInt("filler")

	s := make(seq, 0, 2*sites)
	for i := 0; i < sites; i++ {
		if filler > 0 {
			s = append(s, steady(b, filler))
		}
		s = append(s, b.site(&bernoulli{p: bias, r: b.r.Fork(uint64(i) + 0xda7a)}))
	}
	return s
}

// phasedProgram: `phases` distinct mini-programs, the active one
// switching every `period` emitted branches.
func phasedProgram(ts TraceSpec, b *builder) node {
	period := ts.fieldInt("period")
	phases := ts.fieldInt("phases")

	children := make([]node, phases)
	for i := 0; i < phases; i++ {
		children[i] = seq{
			b.pat(5 + i%7),
			b.fixedLoop(4+i%5, b.site(always(i%2 == 0))),
			b.bern(0.97),
			steady(b, 3),
		}
	}
	return &phaser{period: period, children: children}
}

// ctxflushProgram: a predictable inner program interrupted every
// `period` branches by a `burst`-branch flush of random directions at
// alien PCs.
func ctxflushProgram(ts TraceSpec, b *builder) node {
	period := ts.fieldInt("period")
	burst := ts.fieldInt("burst")

	nPCs := burst
	if nPCs > 256 {
		nPCs = 256
	}
	pcs := make([]uint64, nPCs)
	for i := range pcs {
		pcs[i] = b.pc()
	}
	fl := &flusher{period: period, burst: burst, pcs: pcs, r: b.r.Fork(0xf1a5), next: period}
	inner := seq{
		b.pat(12),
		b.fixedLoop(9, b.pat(5)),
		b.bern(0.995),
		lscFood(b, 10),
	}
	return seq{fl, inner}
}

// mixProgram: one component kind (default-configured) runs per step,
// chosen by the spec's weights. Validation guarantees at least one
// component field is set.
func mixProgram(ts TraceSpec, b *builder) node {
	var weights []int
	var children []node
	for _, k := range kindOrder {
		if k == "mix" {
			continue
		}
		v, ok := ts.Field(k)
		if !ok {
			continue
		}
		w, err := strconv.Atoi(v)
		if err != nil {
			panic(fmt.Sprintf("workload: mix weight %q: non-integer canonical value %q", k, v))
		}
		weights = append(weights, w)
		children = append(children, traceKindDefs[k].program(TraceSpec{kind: k}, b))
	}
	if len(children) == 1 {
		return children[0]
	}
	return b.pick(weights, false, children...)
}

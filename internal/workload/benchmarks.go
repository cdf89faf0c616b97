package workload

import (
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Spec identifies one workload: a named synthetic benchmark, a resolved
// generator spec, or a file-backed external trace. Name is the trace
// identity everywhere (cell keys, store records, warm-cache keys); for
// named benchmarks it is the benchmark name, for generator specs the
// canonical spec string, and for file sources the content-addressed
// "file:<hash>" form.
type Spec struct {
	Name     string
	Category string
	Seed     uint64
	// Hard marks the seven high-misprediction traces of Section 2.2.
	Hard  bool
	build func(b *builder) node
	// spec, when set, is the resolvable spec string behind a Name that
	// is not itself resolvable — file sources record "file:<path>" here
	// while Name carries the content hash.
	spec string
	// gen, when set, bypasses program building entirely (file-backed
	// sources replay loaded branches).
	gen func(branches int) *trace.Trace
}

// SpecString returns the resolvable spec string for this workload:
// ResolveSpec(s.SpecString()) rebuilds an equivalent Spec. For named
// benchmarks and generator kinds this is just Name.
func (s Spec) SpecString() string {
	if s.spec != "" {
		return s.spec
	}
	return s.Name
}

// HardNames lists the paper's seven high-misprediction-rate benchmarks
// (Section 2.2), which our synthesis reproduces as the hard subset.
var HardNames = map[string]bool{
	"CLIENT02": true, "INT01": true, "INT02": true,
	"MM05": true, "MM07": true, "WS03": true, "WS04": true,
}

// suite is the 40 benchmark specs in name order, built once: their
// program closures capture nothing but the benchmark's index.
var suite = buildSuite()

// All returns the 40 benchmark specs in a stable order, in a fresh
// slice the caller may modify.
func All() []Spec { return slices.Clone(suite) }

func buildSuite() []Spec {
	var specs []Spec
	add := func(cat string, i int, f func(b *builder) node) {
		name := fmt.Sprintf("%s%02d", cat, i+1)
		specs = append(specs, Spec{
			Name:     name,
			Category: cat,
			Seed:     uint64(len(specs)+1) * 0x9e3779b97f4a7c15,
			Hard:     HardNames[name],
			build:    f,
		})
	}
	for i := 0; i < 8; i++ {
		add("CLIENT", i, clientBench(i))
	}
	for i := 0; i < 8; i++ {
		add("INT", i, intBench(i))
	}
	for i := 0; i < 8; i++ {
		add("MM", i, mmBench(i))
	}
	for i := 0; i < 8; i++ {
		add("SERVER", i, serverBench(i))
	}
	for i := 0; i < 8; i++ {
		add("WS", i, wsBench(i))
	}
	sort.SliceStable(specs, func(a, b int) bool { return specs[a].Name < specs[b].Name })
	return specs
}

// Find returns the spec with the given name.
func Find(name string) (Spec, bool) {
	i, ok := slices.BinarySearchFunc(suite, name, func(s Spec, name string) int { return strings.Compare(s.Name, name) })
	if !ok {
		return Spec{}, false
	}
	return suite[i], true
}

// Select resolves trace patterns against the suite and the spec
// grammar: a pattern containing ':' is a trace spec (generator kind or
// "file:path.bpt") resolved via ResolveSpec; anything else is a
// benchmark-name glob (e.g. "INT*"). Glob matches come first in suite
// order, then spec-resolved workloads in pattern order, deduplicated by
// trace identity. No patterns selects the whole suite; a pattern that
// matches nothing is an error with near-miss suggestions, so a typo
// fails loudly instead of silently shrinking a sweep.
func Select(patterns []string) ([]Spec, error) {
	if len(patterns) == 0 {
		return All(), nil
	}
	matched := make(map[string]bool)
	var specs []Spec // resolved (non-glob) workloads, pattern order
	for _, p := range patterns {
		if strings.ContainsRune(p, ':') {
			sp, err := ResolveSpec(p)
			if err != nil {
				return nil, err
			}
			specs = append(specs, sp)
			continue
		}
		hit := false
		for _, s := range suite {
			ok, err := path.Match(p, s.Name)
			if err != nil {
				return nil, fmt.Errorf("workload: bad trace pattern %q: %w", p, err)
			}
			if ok {
				matched[s.Name] = true
				hit = true
			}
		}
		if !hit {
			// Non-glob misses may still be valid specs (a generator
			// kind misspelled, or a name typo): route through the
			// spec parser for its richer diagnostics.
			if !strings.ContainsAny(p, "*?[") {
				sp, err := ResolveSpec(p)
				if err != nil {
					return nil, err
				}
				specs = append(specs, sp)
				continue
			}
			return nil, unknownNameError(p)
		}
	}
	var out []Spec
	for _, s := range suite {
		if matched[s.Name] {
			out = append(out, s)
		}
	}
	for _, sp := range specs {
		if !matched[sp.Name] {
			matched[sp.Name] = true
			out = append(out, sp)
		}
	}
	return out, nil
}

// Generate materialises `branches` branches of the workload. For
// generated workloads (named benchmarks and generator specs) the result
// is a pure function of (Seed, branches); file-backed workloads replay
// their loaded branches.
func Generate(spec Spec, branches int) *trace.Trace {
	if spec.gen != nil {
		return spec.gen(branches)
	}
	b := newBuilder(spec.Seed)
	program := spec.build(b)
	e := &emitter{env: newEnv(b.r.Fork(0xeeee)), limit: branches}
	e.buf = make([]trace.Branch, 0, branches)
	(&repeat{body: program}).run(e)
	return &trace.Trace{Name: spec.Name, Category: spec.Category, Branches: e.buf}
}

// GenerateByName materialises a benchmark by name.
func GenerateByName(name string, branches int) (*trace.Trace, error) {
	spec, ok := Find(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return Generate(spec, branches), nil
}

// --- shared building blocks ---

// fixedSig emits a short fixed direction signature: every branch is
// trivially predictable, but different signatures leave different
// direction-history imprints (path irregularity without irreducible
// noise).
func fixedSig(b *builder, dirs ...bool) node {
	s := make(seq, len(dirs))
	for i, d := range dirs {
		s[i] = b.site(always(d))
	}
	return s
}

// scramble picks silently between distinct fixed signatures: the control
// flow becomes irregular while every emitted branch stays predictable in
// isolation — the "erratic control flow in the loop body" of Section 5.2.
// The entropy injected into the global history is one bit per call.
func scramble(b *builder) node {
	return b.pick(uniform(2), true,
		fixedSig(b, true, false),
		fixedSig(b, false, true),
	)
}

// scFood is a statistically biased branch in a scrambled context: a wide
// counter predicts it at its bias; TAGE's allocation churn does worse
// (the Section 5.3 target class).
func scFood(b *builder, p float64) node {
	return seq{scramble(b), b.bern(p)}
}

// steady emits k highly predictable branches (the bulk of real programs):
// tight always-taken loops, repeating patterns and near-certain tests.
func steady(b *builder, k int) node {
	s := make(seq, 0, k)
	for i := 0; i < k; i++ {
		switch i % 4 {
		case 0:
			s = append(s, b.site(always(i%8 < 6)))
		case 1:
			s = append(s, b.site(always(b.r.Bool(0.5))))
		case 2:
			s = append(s, b.bern(0.999))
		default:
			s = append(s, b.site(always(true)))
		}
	}
	return s
}

// lscFood is a branch predictable only from its own local history: a
// pattern site whose global context is scrambled.
func lscFood(b *builder, patternLen int) node {
	return seq{scramble(b), b.pat(patternLen)}
}

// loopFood is a constant-trip loop with an erratic body: the loop
// predictor's unique territory (trip beyond the LSC's 31-bit local
// history; body scrambles TAGE's global history).
func loopFood(b *builder, trip int) node {
	return b.fixedLoop(trip, scramble(b))
}

// phasedFood is a tight loop over a direction that flips phase every
// `period` iterations: the delayed-update stress case of Figure 3 and the
// IUM's recovery target.
func phasedFood(b *builder, trip, period int) node {
	return b.fixedLoop(trip, b.site(&phased{period: period, dir: true}))
}

// neuralFood is a majority-of-history branch preceded by its noise
// sources: linearly separable, exact-match-resistant.
func neuralFood(b *builder, window int, noise float64) node {
	return seq{
		b.bern(0.5), b.bern(0.5), b.bern(0.5),
		b.site(&majority{window: window, noise: noise, r: b.r.Fork(uint64(window))}),
	}
}

// copyFood pairs a noise source with a branch copying it at distance
// dist: one-weight learning for a neural predictor.
func copyFood(b *builder, dist int) node {
	filler := make(seq, 0, dist)
	for i := 0; i < dist-1; i++ {
		filler = append(filler, b.site(always(i%2 == 0)))
	}
	return seq{b.bern(0.5), filler, b.site(copyDist{dist: dist})}
}

// --- category recipes ---
//
// Calibration targets (reference 512Kb TAGE, Section 2.2): the 33 easy
// traces sit well under ~3 MPKI each; the 7 hard traces near 8-20 MPKI and
// together carry ~3/4 of the suite's mispredictions.

// clientBench: event-dispatch style: a skewed choice among handlers, each
// with biased branches, small loops and patterns. CLIENT02 is the
// footprint outlier: a pattern zoo whose accuracy is capacity-bound.
func clientBench(i int) func(b *builder) node {
	return func(b *builder) node {
		if i == 1 { // CLIENT02: capacity-bound pattern zoo
			// The zoo's context is kept deterministic (the noise sits right
			// after the zoo, maximally far from the next segment start), so
			// its predictability is purely a table-capacity question: small
			// predictors thrash, multi-Mbit predictors learn every pattern —
			// the Figure 9 cliff.
			zoo := b.site(newPatternZoo(b.r.Fork(2), 1024, 16))
			zooSeg := b.fixedLoop(16, zoo)
			return seq{zooSeg, b.bern(0.9), steady(b, 8), phasedFood(b, 5, 50)}
		}
		handlers := []node{
			seq{b.bern(0.998), b.pat(6), b.fixedLoop(5, b.site(always(true)))},
			seq{b.pat(8), b.bern(0.997), steady(b, 4)},
			lscFood(b, 10+i),
			seq{b.bern(0.996), b.pat(5), steady(b, 3)},
			loopFood(b, 16+i),
			scFood(b, 0.92),
			steady(b, 6),
			phasedFood(b, 7, 40+6*i),
		}
		return b.cycle(17, handlers...)
	}
}

// intBench: integer codes: loops, path-correlated branches, statistical
// bias. INT01/INT02 are hard: noise plus neural-friendly functions,
// diluted with realistic predictable filler.
func intBench(i int) func(b *builder) node {
	return func(b *builder) node {
		if i == 0 { // INT01
			return seq{
				neuralFood(b, 17, 0.06),
				steady(b, 8),
				copyFood(b, 7),
				neuralFood(b, 11, 0.05),
				steady(b, 6),
				seq{b.bern(0.7), b.bern(0.62), b.bern(0.58)},
				lscFood(b, 11),
				phasedFood(b, 8, 24),
				copyFood(b, 5),
				b.fixedLoop(6, steady(b, 2)),
			}
		}
		if i == 1 { // INT02
			return seq{
				copyFood(b, 11),
				steady(b, 8),
				neuralFood(b, 23, 0.1),
				copyFood(b, 6),
				seq{b.bern(0.62), b.bern(0.7), b.bern(0.74), b.bern(0.55)},
				neuralFood(b, 13, 0.07),
				phasedFood(b, 7, 30),
				loopFood(b, 22),
			}
		}
		body := seq{b.bern(0.998), b.pat(6 + i)}
		return seq{
			b.fixedLoop(8+i, body),
			b.cycle(13,
				seq{b.pat(12), b.bern(0.998)},
				lscFood(b, 8),
				steady(b, 5),
				loopFood(b, 16+i),
				steady(b, 7),
				phasedFood(b, 6, 50+4*i),
			),
			scFood(b, 0.93),
		}
	}
}

// mmBench: multimedia kernels: deeply regular nested loops and long
// patterns. MM05/MM07 are hard: noisy data-dependent branches inside the
// kernels.
func mmBench(i int) func(b *builder) node {
	return func(b *builder) node {
		if i == 4 { // MM05
			inner := seq{b.bern(0.62), steady(b, 5)}
			return seq{
				b.fixedLoop(16, inner),
				neuralFood(b, 15, 0.08),
				copyFood(b, 8),
				seq{b.bern(0.6), b.bern(0.67)},
				lscFood(b, 13),
			}
		}
		if i == 6 { // MM07
			return seq{
				b.jitterLoop(6, 9, seq{b.bern(0.68), steady(b, 3)}),
				copyFood(b, 9),
				neuralFood(b, 21, 0.12),
				copyFood(b, 12),
				seq{b.bern(0.74), b.bern(0.6)},
				neuralFood(b, 9, 0.06),
			}
		}
		kernel := seq{b.pat(16 + 4*i), b.fixedLoop(6+i, b.site(always(true)))}
		return seq{
			b.fixedLoop(24+4*i, kernel),
			b.pat(32),
			phasedFood(b, 6, 60+8*i),
			loopFood(b, 26+2*i),
		}
	}
}

// serverBench: large static footprint: many distinct request-handler
// segments selected by a two-level dispatch with long super-periods. Each
// site's direction is fixed (request-type-determined); the predictability
// burden falls on the dispatch routers and the per-group kernels, so
// accuracy is capacity-bound (Figure 9's rising benefit of larger
// predictors).
func serverBench(i int) func(b *builder) node {
	return func(b *builder) node {
		nGroups := 8
		perGroup := 12 + 2*i
		groups := make([]node, nGroups)
		for g := 0; g < nGroups; g++ {
			segs := make([]node, perGroup)
			for s := 0; s < perGroup; s++ {
				segs[s] = seq{
					b.site(always(b.r.Bool(0.7))),
					b.site(always(b.r.Bool(0.5))),
					b.bern(0.997),
					b.site(always(b.r.Bool(0.6))),
				}
			}
			// One tightly-recurring pattern kernel per group.
			segs[0] = seq{segs[0], b.fixedLoop(6, b.pat(6))}
			groups[g] = b.cycle(perGroup+5, segs...)
		}
		return seq{
			b.cycle(nGroups+3, groups...),
			b.cycle(11,
				steady(b, 6),
				lscFood(b, 9),
				loopFood(b, 18+i),
				scFood(b, 0.91),
				steady(b, 8),
				phasedFood(b, 8, 36+4*i),
			),
		}
	}
}

// wsBench: workstation mix. WS03/WS04 are hard: noise, local-only
// patterns, irregular loops and neural-friendly correlations.
func wsBench(i int) func(b *builder) node {
	return func(b *builder) node {
		if i == 2 { // WS03
			return seq{
				seq{b.bern(0.56), steady(b, 4)},
				lscFood(b, 14),
				neuralFood(b, 19, 0.09),
				copyFood(b, 10),
				phasedFood(b, 6, 28),
				loopFood(b, 26),
				seq{b.bern(0.68), b.bern(0.74), b.bern(0.62)},
			}
		}
		if i == 3 { // WS04
			return seq{
				copyFood(b, 13),
				steady(b, 6),
				seq{b.bern(0.64), b.bern(0.7), b.bern(0.58)},
				neuralFood(b, 13, 0.08),
				b.jitterLoop(5, 7, steady(b, 3)),
				lscFood(b, 12),
			}
		}
		return seq{
			b.fixedLoop(10+i, seq{b.pat(8), b.bern(0.998)}),
			b.cycle(11,
				seq{b.pat(10), b.bern(0.998)},
				lscFood(b, 8+i),
				loopFood(b, 18+i),
				steady(b, 6),
				b.pat(20),
				steady(b, 7),
				phasedFood(b, 7, 44+5*i),
			),
			scFood(b, 0.94),
		}
	}
}

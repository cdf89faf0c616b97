// Package workload synthesises the 40-trace benchmark set standing in for
// the (proprietary) CBP-3 traces the paper evaluates on (Section 2): five
// categories — CLIENT, INT, MM, SERVER, WS — of eight traces each, built
// from branch-behaviour archetypes that isolate the mechanisms the paper
// studies:
//
//   - constant-trip loops with irregular bodies  -> loop predictor (5.2)
//   - statistically biased, history-uncorrelated -> Statistical Corrector (5.3)
//   - local patterns under noisy global paths    -> LSC (6)
//   - recurring path contexts, long periods      -> TAGE's own strength (3)
//   - majority/copy functions of noisy history   -> neural predictors (6.3)
//   - huge pattern footprints                    -> capacity scaling (Fig. 9)
//
// Seven traces (CLIENT02, INT01, INT02, MM05, MM07, WS03, WS04) are
// deliberately hard and carry roughly three quarters of the suite's
// mispredictions, reproducing the Section 2.2 characterisation; CLIENT02's
// difficulty is almost purely footprint (a pattern zoo), giving it the
// paper's "suddenly falls at 2-8 Mbit" scaling cliff.
//
// Everything is deterministic given the per-trace seed.
package workload

import (
	"repro/internal/bitutil"
	"repro/internal/rng"
	"repro/internal/trace"
)

// env is the shared generation state visible to behaviours.
type env struct {
	r      *rng.Xoshiro
	recent []uint8 // ring of recent branch outcomes (global history)
	head   int
}

func newEnv(r *rng.Xoshiro) *env {
	return &env{r: r, recent: make([]uint8, 4096)}
}

func (e *env) push(taken bool) {
	e.head = (e.head + 1) & (len(e.recent) - 1)
	if taken {
		e.recent[e.head] = 1
	} else {
		e.recent[e.head] = 0
	}
}

// bit returns the outcome of the i-th most recent emitted branch.
func (e *env) bit(i int) bool {
	return e.recent[(e.head-i)&(len(e.recent)-1)] == 1
}

// behavior produces successive outcomes for one static branch site.
type behavior interface {
	next(e *env) bool
}

// --- behaviours ---

// always is a fully biased branch.
type always bool

func (a always) next(*env) bool { return bool(a) }

// bernoulli is a statistically biased branch with no correlation to
// anything: the Statistical Corrector's target class.
type bernoulli struct {
	p float64
	r *rng.Xoshiro
}

func (b *bernoulli) next(*env) bool { return b.r.Bool(b.p) }

// pattern replays a fixed bit pattern: predictable from local history (and
// from global history when its context is quiet).
type pattern struct {
	bits []bool
	pos  int
}

func (p *pattern) next(*env) bool {
	v := p.bits[p.pos]
	p.pos++
	if p.pos == len(p.bits) {
		p.pos = 0
	}
	return v
}

// patternZoo cycles through a large set of distinct patterns, switching
// after each full pass: each (pattern, position) pair is an independent
// mapping, so prediction accuracy is capacity-bound (the CLIENT02
// archetype).
type patternZoo struct {
	patterns [][]bool
	pi, pos  int
}

func newPatternZoo(r *rng.Xoshiro, numPatterns, length int) *patternZoo {
	z := &patternZoo{patterns: make([][]bool, numPatterns)}
	for i := range z.patterns {
		p := make([]bool, length)
		for j := range p {
			p[j] = r.Bool(0.5)
		}
		z.patterns[i] = p
	}
	return z
}

func (z *patternZoo) next(*env) bool {
	p := z.patterns[z.pi]
	v := p[z.pos]
	z.pos++
	if z.pos == len(p) {
		z.pos = 0
		z.pi++
		if z.pi == len(z.patterns) {
			z.pi = 0
		}
	}
	return v
}

// majority takes the majority vote of the last `window` global outcomes,
// with flip noise: linearly separable (neural predictors learn it), but an
// exact-match predictor sees an astronomical pattern space.
type majority struct {
	window int
	noise  float64
	r      *rng.Xoshiro
}

func (m *majority) next(e *env) bool {
	cnt := 0
	for i := 1; i <= m.window; i++ {
		if e.bit(i) {
			cnt++
		}
	}
	v := cnt*2 >= m.window
	if m.r.Bool(m.noise) {
		v = !v
	}
	return v
}

// phased flips its direction every `period` occurrences: a stationary
// predictor tracks each phase perfectly, but every phase change costs a
// burst of mispredictions under delayed update (the Figure 3 mechanism) —
// exactly one under oracle update. This is the behaviour class the IUM
// recovers (Section 5.1).
type phased struct {
	period int
	count  int
	dir    bool
}

func (p *phased) next(*env) bool {
	v := p.dir
	p.count++
	if p.count == p.period {
		p.count = 0
		p.dir = !p.dir
	}
	return v
}

// copyDist copies the outcome of the branch `dist` positions back in the
// global stream: trivially linear (single weight) for a neural predictor,
// unlearnable for exact-match predictors when the source is noise.
type copyDist struct {
	dist int
}

func (c copyDist) next(e *env) bool { return e.bit(c.dist) }

// --- program structure ---

// emitter accumulates the trace.
type emitter struct {
	env   *env
	tb    *trace.Builder
	n     int // branches emitted
	limit int
}

func (e *emitter) full() bool { return e.n >= e.limit }

// emit appends one branch of s. The first emit interns s in the trace's
// table and caches its index on s, so later ones look nothing up.
func (e *emitter) emit(s *static, taken bool) {
	if e.full() {
		return
	}
	if s.id == 0 {
		s.id = e.tb.Intern(s.pc, uint8(2+bitutil.Mix64(s.pc)%6)) + 1
	}
	e.tb.Emit(s.id-1, taken)
	e.n++
	e.env.push(taken)
}

// static is one static branch of a generated program: its PC and, once
// emitted, its index in the trace's table plus one. A program is built
// for one trace, so the index is that trace's.
type static struct {
	pc uint64
	id int
}

// routers returns the router branches of a dispatch over n children:
// ceil(log2(n)) statics at consecutive 4-byte PCs from pc, the one for
// bit b of the chosen index at routers[b].
func routers(pc uint64, n int) []static {
	s := make([]static, bitutil.Log2(bitutil.CeilPow2(n)))
	for i := range s {
		s[i].pc = pc + uint64(i)*4
	}
	return s
}

// node is a program structure element.
type node interface {
	run(e *emitter)
}

// seq runs children in order.
type seq []node

func (s seq) run(e *emitter) {
	for _, n := range s {
		if e.full() {
			return
		}
		n.run(e)
	}
}

// site is a single static branch.
type site struct {
	pc static
	b  behavior
}

func (s *site) run(e *emitter) { e.emit(&s.pc, s.b.next(e.env)) }

// loop runs body a number of times given by trips(), emitting the
// backward loop-control branch (taken while iterating) after each body.
type loop struct {
	ctrl  static
	trips func() int
	body  node
}

func (l *loop) run(e *emitter) {
	n := l.trips()
	for i := 0; i < n && !e.full(); i++ {
		if l.body != nil {
			l.body.run(e)
		}
		e.emit(&l.ctrl, i < n-1)
	}
}

// choose picks one child according to weights, emitting ceil(log2(n))
// "router" branches whose outcomes encode the chosen index — the way an
// if/else chain imprints the path on the global history.
type choose struct {
	routers  []static // none when silent
	weights  []int
	total    int
	children []node
	r        *rng.Xoshiro
}

func newChoose(routerPC uint64, r *rng.Xoshiro, weights []int, children []node, silent bool) *choose {
	t := 0
	for _, w := range weights {
		t += w
	}
	c := &choose{weights: weights, total: t, children: children, r: r}
	if !silent {
		c.routers = routers(routerPC, len(children))
	}
	return c
}

func (c *choose) run(e *emitter) {
	pick := c.r.Intn(c.total)
	idx := 0
	for i, w := range c.weights {
		if pick < w {
			idx = i
			break
		}
		pick -= w
	}
	for b := len(c.routers) - 1; b >= 0; b-- {
		e.emit(&c.routers[b], (idx>>uint(b))&1 == 1)
	}
	if !e.full() {
		c.children[idx].run(e)
	}
}

// cycle dispatches over children following a fixed periodic schedule
// (drawn once at build time), emitting router branches like choose. The
// super-period is typically far beyond a short history register but well
// within TAGE's geometric reach — the realistic "repetitive dispatch"
// behaviour that separates long-history from short-history predictors.
type cycle struct {
	routers  []static
	schedule []int
	pos      int
	children []node
}

func (c *cycle) run(e *emitter) {
	idx := c.schedule[c.pos]
	c.pos++
	if c.pos == len(c.schedule) {
		c.pos = 0
	}
	for b := len(c.routers) - 1; b >= 0; b-- {
		e.emit(&c.routers[b], (idx>>uint(b))&1 == 1)
	}
	if !e.full() {
		c.children[idx].run(e)
	}
}

// repeat runs its child forever (bounded by the emitter limit).
type repeat struct{ body node }

func (r *repeat) run(e *emitter) {
	for !e.full() {
		r.body.run(e)
	}
}

// builder allocates PCs and carries the benchmark RNG.
type builder struct {
	r      *rng.Xoshiro
	nextPC uint64
}

func newBuilder(seed uint64) *builder {
	return &builder{r: rng.NewXoshiro(seed), nextPC: 0x400000}
}

func (b *builder) pc() uint64 {
	p := b.nextPC
	b.nextPC += 0x10
	return p
}

func (b *builder) site(bh behavior) node { return &site{pc: static{pc: b.pc()}, b: bh} }

func (b *builder) bern(p float64) node {
	return b.site(&bernoulli{p: p, r: b.r.Fork(b.nextPC)})
}

func (b *builder) pat(length int) node {
	bits := make([]bool, length)
	for i := range bits {
		bits[i] = b.r.Bool(0.5)
	}
	return b.site(&pattern{bits: bits})
}

func (b *builder) fixedLoop(trip int, body node) node {
	return &loop{ctrl: static{pc: b.pc()}, trips: func() int { return trip }, body: body}
}

func (b *builder) jitterLoop(base, spread int, body node) node {
	r := b.r.Fork(b.nextPC)
	return &loop{ctrl: static{pc: b.pc()}, trips: func() int { return base + r.Intn(spread+1) }, body: body}
}

func (b *builder) pick(weights []int, silent bool, children ...node) node {
	return newChoose(b.pc(), b.r.Fork(b.nextPC), weights, children, silent)
}

// cycle builds a periodic dispatcher: child 0 dominates the schedule, the
// others appear in a fixed pseudo-random order.
func (b *builder) cycle(scheduleLen int, children ...node) node {
	sched := make([]int, scheduleLen)
	for i := range sched {
		if b.r.Bool(0.6) || len(children) == 1 {
			sched[i] = 0
		} else {
			sched[i] = 1 + b.r.Intn(len(children)-1)
		}
	}
	return &cycle{routers: routers(b.pc(), len(children)), schedule: sched, children: children}
}

func uniform(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func skewed(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	w[0] = 4 * n
	return w
}

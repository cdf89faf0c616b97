package repro

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/composed"
	"repro/internal/ftlpp"
	"repro/internal/gehl"
	"repro/internal/gshare"
	"repro/internal/neural"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
)

// Property suite for the predictor pool. The contract under test is the
// one NewRunner documents: a pooled instance Reset between runs is
// byte-identical to fresh Run calls. Every harness cell — bpbench's, the
// farm's and every experiment's — runs on such a pooled instance. The
// specs are drawn from the declarative grammar so arbitrary points of
// the design space — not just the named models — are covered.

// propertySpecs samples the spec grammar deterministically: every kind,
// parameterised variants, budget-scaled variants, and composite stacks.
func propertySpecs(t *testing.T, rng *rand.Rand) []ModelSpec {
	t.Helper()
	raw := []string{
		"tage",
		"gshare",
		"gehl",
		"ohsnap",
		"ftlpp",
		"tage-lsc",
		fmt.Sprintf("tage:tables=%d,hist=%d:%d", 5+rng.Intn(8), 4+rng.Intn(4), 200+rng.Intn(400)),
		fmt.Sprintf("gshare:log=%d", 12+rng.Intn(6)),
		"composed:tage+ium",
		fmt.Sprintf("tage@%+d", 1-rng.Intn(3)),
		// The experiments' own configurations (E3, E4, E5, E6, E13, E14).
		"isl-tage",
		"tage-lsc-banked",
		"tage-ium",
		"tage:banked=1",
		"tage:ium=1",
	}
	specs := make([]ModelSpec, 0, len(raw))
	for _, s := range raw {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// normalize zeroes the wall-clock fields, the only legitimate
// difference between two runs of the same cell.
func normalize(r Result) Result {
	r.Elapsed = 0
	r.BranchesPerSec = 0
	return r
}

// TestPooledRunnerMatchesFreshAcrossSpecs: for random specs, scenarios
// and traces, a NewRunner closure run repeatedly (dirty pool, Reset
// between calls) returns exactly what fresh Model.Run calls return.
// Each cell then runs again as one pass over several scenarios
// (Options.Also), and every lane must return what the fresh single run
// of its scenario does: the TAGE family shares one front end across the
// lanes and returns every Also result; the other kinds return none, and
// their scenarios run singly on the same runner, as the harness runs
// them. Every draw happens before the subtests go parallel, so one seed
// always picks the same cells.
func TestPooledRunnerMatchesFreshAcrossSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scenarios := []Scenario{ScenarioI, ScenarioA, ScenarioB, ScenarioC}
	names := TraceNames()
	type cell struct {
		trace    string
		branches int
		opt      Options
	}
	for _, spec := range propertySpecs(t, rng) {
		spec := spec
		var cells [3]cell
		for i := range cells {
			sc := scenarios[rng.Intn(len(scenarios))]
			cells[i] = cell{
				trace:    names[rng.Intn(len(names))],
				opt:      Options{Scenario: sc, Window: 16 + 8*rng.Intn(2)},
				branches: 1500 + rng.Intn(1500),
			}
		}
		t.Run(spec.Canonical(), func(t *testing.T) {
			t.Parallel()
			m, err := spec.Build()
			if err != nil {
				t.Fatalf("Build(%s): %v", spec, err)
			}
			run := m.NewRunner()
			for i, c := range cells {
				tr := MustGenerateTrace(c.trace, c.branches)
				pooled := normalize(run(tr, c.opt))
				fresh := normalize(m.Run(tr, c.opt))
				if !reflect.DeepEqual(pooled, fresh) {
					t.Fatalf("run %d (%s, scenario %v): pooled runner diverged from fresh run\npooled: %+v\nfresh:  %+v",
						i, c.trace, c.opt.Scenario, pooled, fresh)
				}
			}
			for i, c := range cells {
				tr := MustGenerateTrace(c.trace, c.branches)
				opt := c.opt
				// Passes of four, two and three scenarios: the runner builds
				// siblings, leaves one dirty, then Resets it.
				for _, sc := range scenarios {
					if sc != opt.Scenario && len(opt.Also) < []int{3, 1, 2}[i] {
						opt.Also = append(opt.Also, sc)
					}
				}
				pass := run(tr, opt)
				if n := len(pass.Also); n != 0 && n != len(opt.Also) {
					t.Fatalf("pass %d: %d Also results for %d scenarios, want all or none", i, n, len(opt.Also))
				}
				for k, sc := range append([]Scenario{opt.Scenario}, opt.Also...) {
					single := c.opt
					single.Scenario = sc
					lane := pass
					if k > 0 && len(pass.Also) > 0 {
						lane = pass.Also[k-1]
					} else if k > 0 {
						lane = run(tr, single)
					}
					lane.Also = nil
					if got, want := normalize(lane), normalize(m.Run(tr, single)); !reflect.DeepEqual(got, want) {
						t.Fatalf("pass %d (%s), lane %v: diverged from its single run\nlane:   %+v\nsingle: %+v", i, c.trace, sc, got, want)
					}
				}
			}
		})
	}
}

// siblingSpy passes a predictor through to sim.Pooled and keeps every
// sibling the pool builds, so a test can inspect the lanes of a pass.
type siblingSpy[C any] struct {
	predictor.Predictor[C]
	sibs *[]predictor.Predictor[C]
}

func (s siblingSpy[C]) Sibling() predictor.Predictor[C] {
	sib := s.Predictor.(predictor.Sibling[C]).Sibling()
	*s.sibs = append(*s.sibs, sib)
	return sib
}

func snapshot[C any](p predictor.Predictor[C]) []byte {
	enc := checkpoint.NewEncoder()
	p.Snapshot(enc)
	return enc.Blob()
}

// checkLanes runs opt as one pooled pass on p and each of its scenarios
// singly on a fresh predictor: every lane's result, and its predictor's
// Snapshot after the pass, must equal the single run's. A predictor
// that cannot share its front end returns no Also results, and its pass
// is the single run of its leading scenario.
func checkLanes[C any](t *testing.T, p predictor.Predictor[C], fresh func() predictor.Predictor[C], tr *Trace, opt Options) {
	t.Helper()
	var sibs []predictor.Predictor[C]
	run := sim.Pooled(p)
	scs := []Scenario{opt.Scenario}
	if _, ok := p.(predictor.Sibling[C]); ok {
		run = sim.Pooled[C](siblingSpy[C]{p, &sibs})
		scs = append(scs, opt.Also...)
	}
	pass := run(tr, opt)
	if len(pass.Also) != len(scs)-1 {
		t.Fatalf("%d Also results, want %d", len(pass.Also), len(scs)-1)
	}
	for k, sc := range scs {
		lane, lanePred := pass, p
		if k > 0 {
			lane, lanePred = pass.Also[k-1], sibs[k-1]
		}
		lane.Also = nil
		single := opt
		single.Scenario, single.Also = sc, nil
		q := fresh()
		if got, want := normalize(lane), normalize(sim.Pooled(q)(tr, single)); !reflect.DeepEqual(got, want) {
			t.Errorf("lane %v diverged from its single run\nlane:   %+v\nsingle: %+v", sc, got, want)
		}
		if !bytes.Equal(snapshot(lanePred), snapshot(q)) {
			t.Errorf("lane %v: predictor snapshot after the pass differs from the single run's", sc)
		}
	}
}

// TestFusedLanesMatchSingleRuns: for every predictor kind the checkpoint
// suite covers, a pass over all four scenarios leaves each lane with
// the result and the predictor state of its scenario's single run. The
// TAGE family fuses all four; gshare, GEHL, neural and FTL++ return only
// their leading scenario, whose others the caller runs singly.
func TestFusedLanesMatchSingleRuns(t *testing.T) {
	tr := MustGenerateTrace("INT01", 3000)
	scenarios := []Scenario{ScenarioI, ScenarioA, ScenarioB, ScenarioC}
	for i, spec := range checkpointSpecs {
		m, err := LookupModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Rotate the leading scenario across specs.
		opt := Options{Scenario: scenarios[i%4], Window: 16}
		for k := 1; k < 4; k++ {
			opt.Also = append(opt.Also, scenarios[(i+k)%4])
		}
		t.Run(spec, func(t *testing.T) {
			switch p := m.NewPredictor().(type) {
			case predictor.Predictor[tage.Ctx]:
				checkLanes(t, p, func() predictor.Predictor[tage.Ctx] { return m.NewPredictor().(predictor.Predictor[tage.Ctx]) }, tr, opt)
			case predictor.Predictor[composed.Ctx]:
				checkLanes(t, p, func() predictor.Predictor[composed.Ctx] { return m.NewPredictor().(predictor.Predictor[composed.Ctx]) }, tr, opt)
			case predictor.Predictor[gshare.Ctx]:
				checkLanes(t, p, func() predictor.Predictor[gshare.Ctx] { return m.NewPredictor().(predictor.Predictor[gshare.Ctx]) }, tr, opt)
			case predictor.Predictor[gehl.Ctx]:
				checkLanes(t, p, func() predictor.Predictor[gehl.Ctx] { return m.NewPredictor().(predictor.Predictor[gehl.Ctx]) }, tr, opt)
			case predictor.Predictor[neural.Ctx]:
				checkLanes(t, p, func() predictor.Predictor[neural.Ctx] { return m.NewPredictor().(predictor.Predictor[neural.Ctx]) }, tr, opt)
			case predictor.Predictor[ftlpp.Ctx]:
				checkLanes(t, p, func() predictor.Predictor[ftlpp.Ctx] { return m.NewPredictor().(predictor.Predictor[ftlpp.Ctx]) }, tr, opt)
			default:
				t.Fatalf("no lane check for %T", p)
			}
		})
	}
}

// TestPooledRunZeroAllocsAcrossSpecs extends the simulator's pooled
// zero-allocation contract to every predictor kind the checkpoint suite
// covers, composed stacks included: once a pooled runner has run, each
// further run — a Reset of the predictor's state walk, then the
// simulation — allocates nothing. That holds for runs that checkpoint
// too: the runner encodes every checkpoint, periodic and end-of-trace,
// into one reused buffer, which the first run grows to a blob's size.
// It holds for a pass over several scenarios as well: the first pass
// builds the siblings and the Also results, later passes Reset them.
func TestPooledRunZeroAllocsAcrossSpecs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := MustGenerateTrace("INT01", 2000)
	ckpt := Options{Scenario: ScenarioA, CheckpointEvery: 500, OnCheckpoint: func([]byte, uint64) {}}
	fused := Options{Scenario: ScenarioA, Also: []Scenario{ScenarioB, ScenarioC}}
	for _, spec := range checkpointSpecs {
		m, err := LookupModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, opt := range map[string]Options{"plain": {Scenario: ScenarioA}, "checkpointing": ckpt, "fused": fused} {
			run := m.NewRunner()
			run(tr, opt) // the first run owns the buffer allocations
			if allocs := testing.AllocsPerRun(5, func() { run(tr, opt) }); allocs != 0 {
				t.Errorf("%s (%s): %v allocs per pooled run, want 0", spec, name, allocs)
			}
		}
	}
}

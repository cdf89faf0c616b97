package repro

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
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
func TestPooledRunnerMatchesFreshAcrossSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scenarios := []Scenario{ScenarioI, ScenarioA, ScenarioB, ScenarioC}
	names := TraceNames()
	for _, spec := range propertySpecs(t, rng) {
		spec := spec
		t.Run(spec.Canonical(), func(t *testing.T) {
			t.Parallel()
			m, err := spec.Build()
			if err != nil {
				t.Fatalf("Build(%s): %v", spec, err)
			}
			run := m.NewRunner()
			for i := 0; i < 3; i++ {
				sc := scenarios[rng.Intn(len(scenarios))]
				name := names[rng.Intn(len(names))]
				opt := Options{Scenario: sc, Window: 16 + 8*rng.Intn(2)}
				tr := MustGenerateTrace(name, 1500+rng.Intn(1500))
				pooled := normalize(run(tr, opt))
				fresh := normalize(m.Run(tr, opt))
				if !reflect.DeepEqual(pooled, fresh) {
					t.Fatalf("run %d (%s, scenario %v): pooled runner diverged from fresh run\npooled: %+v\nfresh:  %+v",
						i, name, sc, pooled, fresh)
				}
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
func TestPooledRunZeroAllocsAcrossSpecs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := MustGenerateTrace("INT01", 2000)
	ckpt := Options{Scenario: ScenarioA, CheckpointEvery: 500, OnCheckpoint: func([]byte, uint64) {}}
	for _, spec := range checkpointSpecs {
		m, err := LookupModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []Options{{Scenario: ScenarioA}, ckpt} {
			run := m.NewRunner()
			run(tr, opt) // the first run owns the buffer allocations
			if allocs := testing.AllocsPerRun(5, func() { run(tr, opt) }); allocs != 0 {
				t.Errorf("%s (checkpointing %v): %v allocs per pooled run, want 0", spec, opt.OnCheckpoint != nil, allocs)
			}
		}
	}
}

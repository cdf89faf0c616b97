package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/harness"
	"repro/internal/models"
)

// A model's name and storage budget are functions of its configuration:
// declaring, resolving or scaling a model builds no predictor. The
// predictor a model does build (to run it) counts the tables it
// allocated, and the adapter in internal/models holds every such
// predictor to the declaration. These tests build each model the CLIs,
// the property suites and the Figure 9 axis resolve, so a configuration
// whose reported budget drifts from the tables it allocates fails here.

// metadataSpecs lists every model the oracle covers: each named model,
// each scalable model across the Figure 9 budgets -4..+3, the checkpoint
// suite's specs and the pool suite's random specs over several seeds.
func metadataSpecs(t *testing.T) []string {
	specs := ModelNames()
	for _, name := range models.ScalableNames() {
		for d := -4; d <= 3; d++ {
			specs = append(specs, fmt.Sprintf("%s@%+d", name, d))
		}
	}
	specs = append(specs, checkpointSpecs...)
	for seed := int64(0); seed < 8; seed++ {
		for _, s := range propertySpecs(t, rand.New(rand.NewSource(seed))) {
			specs = append(specs, s.Canonical())
		}
	}
	return specs
}

func TestModelMetadataMatchesBuiltPredictor(t *testing.T) {
	tr := MustGenerateTrace("INT01", 200)
	seen := make(map[string]bool)
	for _, s := range metadataSpecs(t) {
		if seen[s] {
			continue
		}
		seen[s] = true
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		m, err := spec.Build()
		if err != nil {
			t.Fatalf("Build(%q): %v", s, err)
		}
		res, err := runProtected(m, tr)
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		// gshare: and gehl: specs name their models by the canonical
		// spec, not by the budget-derived name their predictors report.
		canonNamed := !spec.IsNamed() && (spec.Kind() == "gshare" || spec.Kind() == "gehl")
		if !canonNamed && res.Predictor != m.Name() {
			t.Errorf("%s: model declares name %q, its predictor reports %q", s, m.Name(), res.Predictor)
		}
	}
}

// runProtected runs m once over tr, turning a panic (the adapter's check of
// the built predictor against the declaration) into an error.
func runProtected(m *Model, tr *Trace) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return m.Run(tr, Options{Scenario: ScenarioA}), nil
}

// allocatedBytes reports the heap bytes one call of f allocates, averaged
// over a few calls after a warm-up call.
func allocatedBytes(f func()) uint64 {
	const runs = 4
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestResolvingModelsAllocatesNoTables: resolving models, expanding them
// across a budget axis and resolving a wire job's spec build no
// predictor, so each costs kilobytes of bookkeeping whatever the budget.
// Building a throwaway predictor to read its budget cost 5.9 MiB for the
// first case and 44 MiB for tage@+8.
func TestResolvingModelsAllocatesNoTables(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	const limit = 64 << 10
	traces, err := harness.SelectTraces([]string{"INT01"})
	if err != nil {
		t.Fatal(err)
	}
	expand := func() {
		ms, err := BenchModels([]string{"tage", "tage-lsc"})
		if err != nil {
			t.Fatal(err)
		}
		m := &BenchMatrix{Models: ms, Traces: traces, Scenarios: []Scenario{ScenarioA},
			Lengths: []int{1000}, DeltaLogs: []int{-4, -3, -2, -1, 0, 1, 2, 3}}
		if _, err := m.Expand(); err != nil {
			t.Fatal(err)
		}
	}
	if got := allocatedBytes(expand); got >= limit {
		t.Errorf("BenchModels(tage,tage-lsc) expanded over -4..+3 allocates %d bytes, want < %d", got, limit)
	}
	resolve := BenchResolver()
	if got := allocatedBytes(func() {
		if _, err := resolve("tage@+8"); err != nil {
			t.Fatal(err)
		}
	}); got >= limit {
		t.Errorf("resolving tage@+8 allocates %d bytes, want < %d", got, limit)
	}
}

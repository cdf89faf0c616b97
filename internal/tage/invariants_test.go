package tage

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/trace"

	"repro/internal/predictor"
	"repro/internal/sim"
)

// TestStateInvariantsUnderRandomTraffic drives the predictor with
// arbitrary branch traffic and verifies the structural invariants the
// hardware relies on: counters within 3-bit signed range, u bits 0/1, the
// USE_ALT_ON_NA register within its 4-bit range and the tick monitor
// within 8 bits.
func TestStateInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		p := New(smallConfig())
		r := rng.NewXoshiro(seed)
		n := int(nRaw%2000) + 100
		var ctx Ctx
		for i := 0; i < n; i++ {
			pc := uint64(0x40 + r.Intn(64)*4)
			taken := r.Bool(0.5)
			pred := p.Predict(pc, &ctx)
			p.OnResolve(pc, taken, pred != taken, &ctx)
			p.Retire(pc, taken, &ctx, r.Bool(0.5))
		}
		{
			for _, e := range p.entries {
				if e.ctr < -4 || e.ctr > 3 {
					return false
				}
				if e.u > 1 {
					return false
				}
			}
		}
		if p.useAlt < -8 || p.useAlt > 7 {
			return false
		}
		return p.tick <= 255
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineConservation: for arbitrary traces and scenario/window
// combinations, every fetched branch retires exactly once (accounting
// conservation between the simulator and the predictor).
func TestPipelineConservation(t *testing.T) {
	f := func(seed uint64, windowRaw, scenarioRaw uint8) bool {
		r := rng.NewXoshiro(seed)
		n := 500 + r.Intn(2000)
		tr := &trace.Trace{Name: "prop", Category: "T"}
		for i := 0; i < n; i++ {
			tr.Branches = append(tr.Branches, trace.Branch{
				PC:        uint64(0x100 + r.Intn(40)*4),
				Taken:     r.Bool(0.6),
				OpsBefore: uint8(r.Intn(7)),
			})
		}
		scenario := predictor.Scenario(scenarioRaw % 4)
		window := int(windowRaw%48) + 1
		var rn sim.Runner[Ctx]
		res := rn.RunTrace(New(smallConfig()), tr, sim.Options{Scenario: scenario, Window: window})
		return res.Branches == uint64(n) &&
			res.Access.RetiredBranch == uint64(n) &&
			res.Access.PredictReads == uint64(n) &&
			res.Mispredicts <= uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminismAcrossRuns: identical configuration and trace give
// identical results (no hidden global state).
func TestDeterminismAcrossRuns(t *testing.T) {
	mk := func() *trace.Trace {
		r := rng.NewXoshiro(99)
		tr := &trace.Trace{Name: "det", Category: "T"}
		for i := 0; i < 5000; i++ {
			tr.Branches = append(tr.Branches, trace.Branch{
				PC: uint64(0x40 + r.Intn(30)*4), Taken: r.Bool(0.7), OpsBefore: 3,
			})
		}
		return tr
	}
	run := func() sim.Result {
		var rn sim.Runner[Ctx]
		return rn.RunTrace(New(smallConfig()), mk(), sim.Options{Scenario: predictor.ScenarioC})
	}
	a, b := run(), run()
	if a.Mispredicts != b.Mispredicts || a.Access != b.Access {
		t.Fatalf("nondeterministic simulation: %+v vs %+v", a, b)
	}
}

// TestScenarioBNeverReadsFreshState: under scenario B the retire path
// must not consult current table state; verify by checking that a
// concurrent clobber between predict and retire is ignored.
func TestScenarioBNeverReadsFreshState(t *testing.T) {
	p := New(smallConfig())
	var ctx Ctx
	pc := uint64(0x500)
	// Train a provider entry.
	for i := 0; i < 50; i++ {
		p.Predict(pc, &ctx)
		p.OnResolve(pc, true, false, &ctx)
		p.Retire(pc, true, &ctx, true)
	}
	p.Predict(pc, &ctx)
	if ctx.Provider > 0 {
		// Clobber the provider counter behind the pipeline's back.
		e := &p.table(ctx.Provider - 1)[ctx.Index(ctx.Provider-1)]
		e.ctr = -4
		p.OnResolve(pc, true, false, &ctx)
		p.Retire(pc, true, &ctx, false) // scenario B: uses ctx snapshot (+3 -> stays 3)
		if e.ctr != 3 {
			t.Fatalf("scenario B retire consulted fresh state: ctr=%d, want 3 (stale+1 saturated)", e.ctr)
		}
	}
}

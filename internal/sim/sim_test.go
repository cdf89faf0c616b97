package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bimodal"
	"repro/internal/gshare"
	"repro/internal/predictor"
	"repro/internal/tage"
	"repro/internal/trace"
)

// loopTrace builds the Figure 3 example: a single backward loop branch
// taken iters-1 times then not taken, repeated body times.
func loopTrace(iters, bodies int) *trace.Trace {
	t := &trace.Trace{Name: "loop", Category: "TEST"}
	for b := 0; b < bodies; b++ {
		for i := 0; i < iters; i++ {
			t.Branches = append(t.Branches, trace.Branch{
				PC:        0x1000,
				Taken:     i < iters-1,
				OpsBefore: 4,
			})
		}
	}
	return t
}

// TestFigure3DelayedUpdate reproduces the loop example of Figure 3: with a
// bimodal predictor starting at counter 0 and a deep enough pipeline, the
// oracle update predicts correctly from iteration 3, re-reading at retire
// gets there later, and never re-reading later still.
func TestFigure3DelayedUpdate(t *testing.T) {
	run := func(sc predictor.Scenario) uint64 {
		p := bimodal.NewStandalone(10, 10)
		// Force the counter to strongly not-taken (Figure 3 starts at C=0).
		var ctx bimodal.Ctx
		p.Predict(0x1000, &ctx)
		p.Retire(0x1000, false, &ctx, true)
		p.Predict(0x1000, &ctx)
		p.Retire(0x1000, false, &ctx, true)

		tr := loopTrace(40, 1)
		res := runTrace(p, tr, Options{Scenario: sc, Window: 8, ExecDelay: 2})
		return res.Mispredicts
	}
	i := run(predictor.ScenarioI)
	a := run(predictor.ScenarioA)
	b := run(predictor.ScenarioB)
	// Oracle: mispredicts iterations 1 and 2 plus the final exit.
	if i != 3 {
		t.Fatalf("oracle mispredicts = %d, want 3", i)
	}
	if a <= i {
		t.Fatalf("scenario A (%d) must mispredict more than oracle (%d)", a, i)
	}
	if b < a {
		t.Fatalf("scenario B (%d) must be no better than A (%d)", b, a)
	}
}

// TestScenarioOrderingGshare checks the Section 4.1.2 ordering I <= A <= C
// <= B on a gshare predictor over a history-correlated workload.
func TestScenarioOrderingGshare(t *testing.T) {
	// Workload: branch outcomes correlated with recent outcomes, plus a
	// loop, so delayed update hurts.
	mk := func() *trace.Trace {
		tr := &trace.Trace{Name: "corr", Category: "TEST"}
		hist := 0
		for i := 0; i < 30000; i++ {
			pc := uint64(0x2000 + (i%7)*4)
			taken := (hist>>2)&1 == 1
			if i%7 == 3 {
				taken = i%3 != 0
			}
			tr.Branches = append(tr.Branches, trace.Branch{PC: pc, Taken: taken, OpsBefore: 4})
			hist = hist<<1 | b2i(taken)
		}
		return tr
	}
	mispredicts := map[predictor.Scenario]uint64{}
	for _, sc := range []predictor.Scenario{predictor.ScenarioI, predictor.ScenarioA, predictor.ScenarioB, predictor.ScenarioC} {
		p := gshare.New(12)
		res := runTrace(p, mk(), Options{Scenario: sc})
		mispredicts[sc] = res.Mispredicts
	}
	if mispredicts[predictor.ScenarioI] > mispredicts[predictor.ScenarioA] {
		t.Fatalf("I (%d) > A (%d)", mispredicts[predictor.ScenarioI], mispredicts[predictor.ScenarioA])
	}
	if mispredicts[predictor.ScenarioA] > mispredicts[predictor.ScenarioB] {
		t.Fatalf("A (%d) > B (%d)", mispredicts[predictor.ScenarioA], mispredicts[predictor.ScenarioB])
	}
	if mispredicts[predictor.ScenarioC] > mispredicts[predictor.ScenarioB] {
		t.Fatalf("C (%d) > B (%d)", mispredicts[predictor.ScenarioC], mispredicts[predictor.ScenarioB])
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestMetricsComputation(t *testing.T) {
	tr := &trace.Trace{Name: "m", Category: "TEST"}
	// 10 branches, 5 ops each (4 before + branch), alternating outcome on
	// one PC: bimodal at weakly-NT start mispredicts the takens.
	for i := 0; i < 10; i++ {
		tr.Branches = append(tr.Branches, trace.Branch{PC: 0x10, Taken: i%2 == 0, OpsBefore: 4})
	}
	p := bimodal.NewStandalone(6, 6)
	res := runTrace(p, tr, Options{Scenario: predictor.ScenarioI, PenaltyBase: 20})
	if res.Branches != 10 || res.MicroOps != 50 {
		t.Fatalf("counts: %+v", res)
	}
	wantMPKI := float64(res.Mispredicts) / 0.05
	if res.MPKI != wantMPKI {
		t.Fatalf("MPKI = %v, want %v", res.MPKI, wantMPKI)
	}
	if res.MPPKI != 20*wantMPKI {
		t.Fatalf("MPPKI = %v, want %v", res.MPPKI, 20*wantMPKI)
	}
}

func TestAccessAccounting(t *testing.T) {
	tr := loopTrace(10, 50)
	p := bimodal.NewStandalone(8, 8)
	res := runTrace(p, tr, Options{Scenario: predictor.ScenarioC})
	if res.Access.PredictReads != res.Branches {
		t.Fatalf("predict reads = %d, want %d", res.Access.PredictReads, res.Branches)
	}
	if res.Access.RetireReads != res.Mispredicts {
		t.Fatalf("scenario C retire reads = %d, want %d (mispredicts)",
			res.Access.RetireReads, res.Mispredicts)
	}
	if res.Access.RetiredBranch != res.Branches {
		t.Fatalf("retired = %d, want all %d", res.Access.RetiredBranch, res.Branches)
	}
}

func TestScenarioARetireReadsAll(t *testing.T) {
	tr := loopTrace(10, 20)
	p := bimodal.NewStandalone(8, 8)
	res := runTrace(p, tr, Options{Scenario: predictor.ScenarioA})
	if res.Access.RetireReads != res.Branches {
		t.Fatalf("scenario A retire reads = %d, want %d", res.Access.RetireReads, res.Branches)
	}
}

func TestScenarioBNoRetireReads(t *testing.T) {
	tr := loopTrace(10, 20)
	p := bimodal.NewStandalone(8, 8)
	res := runTrace(p, tr, Options{Scenario: predictor.ScenarioB})
	if res.Access.RetireReads != 0 {
		t.Fatalf("scenario B retire reads = %d, want 0", res.Access.RetireReads)
	}
}

func TestEmptyTrace(t *testing.T) {
	p := bimodal.NewStandalone(6, 6)
	res := runTrace(p, &trace.Trace{Name: "empty"}, Options{})
	if res.Branches != 0 || res.MPKI != 0 {
		t.Fatalf("empty trace result: %+v", res)
	}
}

// runTrace simulates p over tr on a one-shot Runner.
func runTrace[C any](p predictor.Predictor[C], tr *trace.Trace, opt Options) Result {
	var rn Runner[C]
	return rn.RunTrace(p, tr, opt)
}

// TestPooledMatchesFresh asserts the pooled-run contract: one predictor
// Reset between traces returns, trace by trace, exactly what a fresh
// predictor returns, except for the wall-clock telemetry fields.
func TestPooledMatchesFresh(t *testing.T) {
	base := benchTrace(9000)
	opt := Options{Scenario: predictor.ScenarioA}
	run := Pooled[tage.Ctx](tage.New(tage.Reference()))
	for i, n := range []int{2000, 3000, 1500, 2500, 1000, 4000, 3500} {
		tr := &trace.Trace{Name: fmt.Sprintf("pooled-%d", i), Category: "BENCH", Branches: base.Branches[:n]}
		got, want := run(tr, opt), runTrace(tage.New(tage.Reference()), tr, opt)
		got.Elapsed, got.BranchesPerSec = 0, 0
		want.Elapsed, want.BranchesPerSec = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %d: pooled result diverges from fresh:\n  pooled: %+v\n  fresh:  %+v", i, got, want)
		}
	}
}

// TestAlsoRefusedWhereALaneCannotCarryIt: Runner.RunTrace is one lane, and a
// checkpoint holds one lane, so Also with either panics.
func TestAlsoRefusedWhereALaneCannotCarryIt(t *testing.T) {
	tr := benchTrace(200)
	also := []predictor.Scenario{predictor.ScenarioB}
	for name, run := range map[string]func(){
		"Runner.RunTrace": func() {
			var rn Runner[tage.Ctx]
			rn.RunTrace(tage.New(smallTage()), tr, Options{Also: also})
		},
		"Resume": func() {
			Pooled[tage.Ctx](tage.New(smallTage()))(tr, Options{Also: also, Resume: &Checkpoint{Blob: []byte{1}}})
		},
		"OnCheckpoint": func() {
			Pooled[tage.Ctx](tage.New(smallTage()))(tr, Options{Also: also, OnCheckpoint: func([]byte, uint64) {}})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with Also did not panic", name)
				}
			}()
			run()
		}()
	}
}

func smallTage() tage.Config { return tage.Scale(tage.Reference(), -4) }

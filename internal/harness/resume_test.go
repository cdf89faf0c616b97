package harness

import (
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gshare"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// countingModel is fakeModel plus an execution counter, so tests can
// assert exactly how many simulator runs a resume performed.
func countingModel(name string, runs *atomic.Int64) Model {
	base := fakeModel(name, flat(2))
	inner := base.Run
	base.Run = func(tr *trace.Trace, opt sim.Options) sim.Result {
		runs.Add(1)
		return inner(tr, opt)
	}
	return base
}

func resumeTestMatrix(t *testing.T, models []Model) *Matrix {
	t.Helper()
	return testMatrix(t, models, []string{"INT01", "INT02", "MM05"},
		[]predictor.Scenario{predictor.ScenarioA, predictor.ScenarioB}, []int{60})
}

func TestPlanResumePartitions(t *testing.T) {
	m := resumeTestMatrix(t, []Model{fakeModel("m", flat(1))})
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 {
		t.Fatalf("expanded %d jobs", len(jobs))
	}

	// Empty store: everything is todo.
	plan := PlanResume(jobs, nil, Provenance{})
	if len(plan.Todo) != 6 || len(plan.Reused) != 0 || plan.PriorHasAggregates {
		t.Fatalf("empty-store plan: %d todo, %d reused", len(plan.Todo), len(plan.Reused))
	}

	// A store holding the first three cells (one failed), an unrelated
	// key, and no aggregates: the failed and missing cells are todo.
	prior := []Record{
		{Kind: KindCell, Model: "m", Trace: jobs[0].Spec.Name, Scenario: jobs[0].Scenario.Letter(), Branches: 60, Window: 24, ExecDelay: 6, MPKI: 1},
		{Kind: KindCell, Model: "m", Trace: jobs[1].Spec.Name, Scenario: jobs[1].Scenario.Letter(), Branches: 60, Err: "panic: boom"},
		{Kind: KindCell, Model: "m", Trace: jobs[2].Spec.Name, Scenario: jobs[2].Scenario.Letter(), Branches: 60, Window: 24, ExecDelay: 6, MPKI: 1},
		{Kind: KindCell, Model: "other", Trace: "INT01", Scenario: "A", Branches: 60, Window: 24, ExecDelay: 6, MPKI: 9},
	}
	plan = PlanResume(jobs, prior, Provenance{})
	if len(plan.Reused) != 2 {
		t.Fatalf("reused %d cells, want 2", len(plan.Reused))
	}
	if len(plan.Todo) != 4 {
		t.Fatalf("todo %d cells, want 4 (3 missing + 1 failed)", len(plan.Todo))
	}
	if plan.Todo[0].Key() != jobs[1].Key() {
		t.Fatalf("failed cell %s must be first todo, got %s", jobs[1].Key(), plan.Todo[0].Key())
	}
	if plan.PriorHasAggregates {
		t.Fatal("cell-only store must not report aggregates")
	}

	// Aggregates in the store are detected, and a failed record that a
	// later appended success supersedes counts as done (append-only:
	// newest record wins).
	prior = append(prior,
		Record{Kind: KindCell, Model: "m", Trace: jobs[1].Spec.Name, Scenario: jobs[1].Scenario.Letter(), Branches: 60, Window: 24, ExecDelay: 6, MPKI: 1},
		Record{Kind: KindSuite, Model: "m", Scenario: "A", Branches: 60, Cells: 3},
	)
	plan = PlanResume(jobs, prior, Provenance{})
	if len(plan.Reused) != 3 || len(plan.Todo) != 3 {
		t.Fatalf("after supersede: reused %d todo %d, want 3/3", len(plan.Reused), len(plan.Todo))
	}
	if !plan.PriorHasAggregates {
		t.Fatal("aggregate record in store not detected")
	}
}

// TestResumeContinuesInterruptedRun is the library half of the archetype
// test: run a grid, truncate its record stream mid-grid, resume, and
// assert (a) only the missing cells executed and (b) the reassembled
// store is record-identical to the uninterrupted run modulo wall-clock
// telemetry.
func TestResumeContinuesInterruptedRun(t *testing.T) {
	var fullRuns atomic.Int64
	m := resumeTestMatrix(t, []Model{countingModel("m", &fullRuns)})

	full := &collectSink{}
	if _, err := Run(m, Config{Parallelism: 2}, full); err != nil {
		t.Fatal(err)
	}
	if fullRuns.Load() != 6 {
		t.Fatalf("uninterrupted run executed %d jobs, want 6", fullRuns.Load())
	}

	// Interrupt after 4 of 6 cells: the store has no aggregates yet.
	truncated := append([]Record(nil), full.recs[:4]...)

	var resumeRuns atomic.Int64
	m2 := resumeTestMatrix(t, []Model{countingModel("m", &resumeRuns)})
	jobs, err := m2.Expand()
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanResume(jobs, truncated, Provenance{})
	appended := &collectSink{}
	sum, err := RunResume(plan, Config{Parallelism: 2}, appended)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumeRuns.Load(); got != 2 {
		t.Fatalf("resume executed %d jobs, want 2", got)
	}
	if sum.Jobs != 6 || sum.Skipped != 4 || sum.Failed != 0 {
		t.Fatalf("resume summary = %+v", sum)
	}

	store := append(truncated, appended.recs...)
	clearTiming := func(recs []Record) []Record {
		out := append([]Record(nil), recs...)
		for i := range out {
			out[i].ElapsedSec = 0
			out[i].BranchesPerSec = 0
		}
		return out
	}
	if !reflect.DeepEqual(clearTiming(store), clearTiming(full.recs)) {
		t.Fatalf("resumed store differs from uninterrupted run:\n%+v\nvs\n%+v", store, full.recs)
	}

	// Resuming the now-complete store must execute nothing and append
	// nothing — the no-op guarantee that makes big grids cheap to re-run.
	var noRuns atomic.Int64
	m3 := resumeTestMatrix(t, []Model{countingModel("m", &noRuns)})
	jobs3, err := m3.Expand()
	if err != nil {
		t.Fatal(err)
	}
	again := &collectSink{}
	sum, err = RunResume(PlanResume(jobs3, store, Provenance{}), Config{}, again)
	if err != nil {
		t.Fatal(err)
	}
	if noRuns.Load() != 0 {
		t.Fatalf("no-op resume executed %d jobs", noRuns.Load())
	}
	if len(again.recs) != 0 {
		t.Fatalf("no-op resume appended %d records: %+v", len(again.recs), again.recs)
	}
	if sum.Jobs != 6 || sum.Skipped != 6 {
		t.Fatalf("no-op summary = %+v", sum)
	}
	if !again.closed {
		t.Fatal("sink must be closed on a no-op resume")
	}
}

// TestResumeRerunsFailedCells: error records in the store are retried,
// and the retry's record is appended even though the old error record
// stays in the (append-only) stream.
func TestResumeRerunsFailedCells(t *testing.T) {
	blowOnce := true
	exploding := Model{Name: "m", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
		if tr.Name == "INT02" && blowOnce {
			panic("transient explosion")
		}
		return sim.Result{Trace: tr.Name, Category: tr.Category, Window: 24, ExecDelay: 6, MPKI: 1}
	}}
	m := testMatrix(t, []Model{exploding}, []string{"INT01", "INT02"},
		[]predictor.Scenario{predictor.ScenarioA}, []int{40})

	first := &collectSink{}
	sum, err := Run(m, Config{Parallelism: 1}, first)
	if err != nil || sum.Failed != 1 {
		t.Fatalf("first pass: sum=%+v err=%v", sum, err)
	}

	blowOnce = false
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanResume(jobs, first.recs, Provenance{})
	if len(plan.Todo) != 1 || plan.Todo[0].Spec.Name != "INT02" {
		t.Fatalf("plan must retry exactly the failed cell, todo=%+v", plan.Todo)
	}
	appended := &collectSink{}
	sum, err = RunResume(plan, Config{}, appended)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 || sum.Skipped != 1 {
		t.Fatalf("retry summary = %+v", sum)
	}
	if len(appended.recs) == 0 || appended.recs[0].Failed() {
		t.Fatalf("retry record = %+v", appended.recs)
	}
	// The merged store now resolves the key to the successful record.
	store := append(append([]Record(nil), first.recs...), appended.recs...)
	finalPlan := PlanResume(jobs, store, Provenance{})
	if len(finalPlan.Todo) != 0 {
		t.Fatalf("store still has todo after retry: %+v", finalPlan.Todo)
	}
}

// TestResumeGrownMatrix: adding cells to a completed store runs only the
// new ones and appends a fresh aggregate set (newest-wins on read).
func TestResumeGrownMatrix(t *testing.T) {
	small := testMatrix(t, []Model{fakeModel("m", flat(1))}, []string{"INT01"},
		[]predictor.Scenario{predictor.ScenarioA}, []int{40})
	first := &collectSink{}
	if _, err := Run(small, Config{}, first); err != nil {
		t.Fatal(err)
	}

	grown := testMatrix(t, []Model{fakeModel("m", flat(1))}, []string{"INT01", "INT02"},
		[]predictor.Scenario{predictor.ScenarioA}, []int{40})
	jobs, err := grown.Expand()
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanResume(jobs, first.recs, Provenance{})
	if !plan.PriorHasAggregates || len(plan.Todo) != 1 {
		t.Fatalf("plan = todo %d, aggs %v", len(plan.Todo), plan.PriorHasAggregates)
	}
	appended := &collectSink{}
	if _, err := RunResume(plan, Config{}, appended); err != nil {
		t.Fatal(err)
	}
	var suite *Record
	for i := range appended.recs {
		if appended.recs[i].Kind == KindSuite {
			suite = &appended.recs[i]
		}
	}
	if suite == nil || suite.Cells != 2 {
		t.Fatalf("grown resume must append a suite aggregate over all cells, got %+v", suite)
	}
}

// TestPlanResumeConfigMismatch: a stored cell simulated under a
// different pipeline configuration must never be silently reused — it
// is queued to re-run and reported as a conflict for callers to refuse.
func TestPlanResumeConfigMismatch(t *testing.T) {
	m := testMatrix(t, []Model{fakeModel("m", flat(1))}, []string{"INT01"},
		[]predictor.Scenario{predictor.ScenarioA}, []int{40})
	first := &collectSink{}
	if _, err := Run(m, Config{}, first); err != nil {
		t.Fatal(err)
	}

	m.Window = 64 // same cells, different pipeline
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanResume(jobs, first.recs, Provenance{})
	if len(plan.Reused) != 0 || len(plan.Todo) != 1 {
		t.Fatalf("mismatched config must not reuse: %d reused, %d todo", len(plan.Reused), len(plan.Todo))
	}
	if len(plan.ConfigConflicts) != 1 || !strings.Contains(plan.ConfigConflicts[0], "24/6") {
		t.Fatalf("conflicts = %v", plan.ConfigConflicts)
	}

	// Matching config (explicit values equal to the defaults) reuses.
	m.Window, m.ExecDelay = 24, 6
	jobs, err = m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	plan = PlanResume(jobs, first.recs, Provenance{})
	if len(plan.Reused) != 1 || len(plan.ConfigConflicts) != 0 {
		t.Fatalf("explicit-default config must reuse: %+v", plan)
	}
}

// TestPlanResumeReusesOracleScenario: the oracle scenario [I] runs with
// no in-flight window and its records say so (window 0); a resume must
// still recognise them as the requested pipeline and reuse them.
func TestPlanResumeReusesOracleScenario(t *testing.T) {
	real := Model{Name: "gshare12", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
		return sim.Pooled(gshare.New(12))(tr, opt)
	}}
	m := testMatrix(t, []Model{real}, []string{"INT01"},
		[]predictor.Scenario{predictor.ScenarioI, predictor.ScenarioA}, []int{500})
	first := &collectSink{}
	if _, err := Run(m, Config{}, first); err != nil {
		t.Fatal(err)
	}
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanResume(jobs, first.recs, Provenance{})
	if len(plan.Reused) != 2 || len(plan.ConfigConflicts) != 0 {
		t.Fatalf("oracle-scenario cells must be reused: %d reused, conflicts %v", len(plan.Reused), plan.ConfigConflicts)
	}
}

// TestReadStoreFileCrashTail: the reader drops an unterminated or
// unparseable final line (what kill -9 mid-write leaves) and returns
// the valid prefix length, but still rejects corruption mid-file.
func TestReadStoreFileCrashTail(t *testing.T) {
	dir := t.TempDir()
	write := func(content string) string {
		p := dir + "/store.jsonl"
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	line := `{"kind":"cell","model":"m","trace":"INT01","scenario":"A","branches":40,"mpki":1}` + "\n"

	// Unterminated tail.
	p := write(line + `{"kind":"cell","model":"m","tra`)
	recs, valid, err := ReadStoreFile(p)
	if err != nil || len(recs) != 1 || valid != int64(len(line)) {
		t.Fatalf("unterminated tail: recs=%d valid=%d err=%v", len(recs), valid, err)
	}

	// Newline-terminated but unparseable final line.
	p = write(line + "{garbage}\n")
	recs, valid, err = ReadStoreFile(p)
	if err != nil || len(recs) != 1 || valid != int64(len(line)) {
		t.Fatalf("bad final line: recs=%d valid=%d err=%v", len(recs), valid, err)
	}

	// A bad line with records after it is corruption, not a crash tail.
	if _, _, err := ReadStoreFile(write(line + "{garbage}\n" + line)); err == nil {
		t.Fatal("mid-file corruption must error")
	}

	// Clean store: everything parses, valid covers the whole file.
	recs, valid, err = ReadStoreFile(write(line + line))
	if err != nil || len(recs) != 2 || valid != int64(2*len(line)) {
		t.Fatalf("clean store: recs=%d valid=%d err=%v", len(recs), valid, err)
	}

	if _, _, err := ReadStoreFile(dir + "/absent.jsonl"); !os.IsNotExist(err) {
		t.Fatalf("missing store err = %v", err)
	}
}

func TestRunResumeSinkFailureStillCloses(t *testing.T) {
	m := resumeTestMatrix(t, []Model{fakeModel("m", flat(1))})
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sink := &failingSink{after: 1}
	_, err = RunResume(PlanResume(jobs, nil, Provenance{}), Config{Parallelism: 2}, sink)
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("emit failure must surface, got %v", err)
	}
	if !sink.closed {
		t.Fatal("sink must be closed after an emit failure")
	}
}

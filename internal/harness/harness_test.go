package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/gshare"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestProtect(t *testing.T) {
	if err := Protect(func() {}); err != nil {
		t.Fatalf("clean fn returned %v", err)
	}
	err := Protect(func() { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestJobSeedDeterministicAndDistinct(t *testing.T) {
	a := JobSeed("tage/INT01/A/1000")
	if a != JobSeed("tage/INT01/A/1000") {
		t.Fatal("seed not deterministic")
	}
	seen := map[uint64]string{}
	for _, k := range []string{
		"tage/INT01/A/1000", "tage/INT01/C/1000", "tage/INT02/A/1000",
		"gshare/INT01/A/1000", "tage/INT01/A/2000",
	} {
		s := JobSeed(k)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %q and %q", prev, k)
		}
		seen[s] = k
	}
}

// fakeModel returns deterministic synthetic results without running a
// real predictor; mpki(name) controls per-trace values. Like the real
// simulator, the result records the effective pipeline configuration
// (resume reuses a stored cell only when it matches).
func fakeModel(name string, mpki func(traceName string) float64) Model {
	return Model{Name: name, Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
		v := mpki(tr.Name)
		w, d := opt.Window, opt.ExecDelay
		if w <= 0 {
			w = sim.DefaultWindow
		}
		if d <= 0 {
			d = sim.DefaultExecDelay
		}
		return sim.Result{
			Trace: tr.Name, Category: tr.Category, Predictor: name,
			Scenario: opt.Scenario, Branches: uint64(tr.Len()),
			Window: w, ExecDelay: d,
			MicroOps: 1000, Mispredicts: uint64(v), MPKI: v, MPPKI: 20 * v,
			Misprediction: v / 1000,
		}
	}}
}

func flat(v float64) func(string) float64 { return func(string) float64 { return v } }

func testMatrix(t *testing.T, models []Model, traces []string, scs []predictor.Scenario, lengths []int) *Matrix {
	t.Helper()
	specs, err := SelectTraces(traces)
	if err != nil {
		t.Fatal(err)
	}
	return &Matrix{Models: models, Traces: specs, Scenarios: scs, Lengths: lengths}
}

func TestMatrixExpandOrderAndFilters(t *testing.T) {
	m := testMatrix(t,
		[]Model{fakeModel("m1", flat(1)), fakeModel("m2", flat(2))},
		[]string{"INT01", "INT02"},
		[]predictor.Scenario{predictor.ScenarioA, predictor.ScenarioC},
		[]int{100, 200})
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 16 {
		t.Fatalf("expanded %d jobs, want 16", len(jobs))
	}
	// Stable nesting: model slowest, length fastest.
	wantFirst := []string{
		"m1/INT01/A/100", "m1/INT01/A/200", "m1/INT01/C/100", "m1/INT01/C/200",
		"m1/INT02/A/100",
	}
	for i, w := range wantFirst {
		if jobs[i].Key() != w {
			t.Fatalf("jobs[%d] = %s, want %s", i, jobs[i].Key(), w)
		}
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("jobs[%d].Index = %d", i, j.Index)
		}
		if j.Seed != JobSeed(j.Key()) {
			t.Fatalf("jobs[%d] seed mismatch", i)
		}
	}

	m.Include = []string{"m1/*/A/*"}
	jobs, err = m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("include filter kept %d jobs, want 4", len(jobs))
	}

	m.Include = nil
	m.Exclude = []string{"INT02", "C"}
	jobs, err = m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("exclude filter kept %d jobs, want 4", len(jobs))
	}
	for _, j := range jobs {
		if j.Spec.Name == "INT02" || j.Scenario == predictor.ScenarioC {
			t.Fatalf("excluded cell survived: %s", j.Key())
		}
	}
}

func TestMatrixExpandEmptyAxis(t *testing.T) {
	m := &Matrix{}
	if _, err := m.Expand(); err == nil {
		t.Fatal("empty matrix must error")
	}
}

func TestMatrixExpandRejectsMalformedPatterns(t *testing.T) {
	m := testMatrix(t, []Model{fakeModel("m", flat(1))}, []string{"INT01"},
		[]predictor.Scenario{predictor.ScenarioA}, []int{100})
	for _, set := range []func(){
		func() { m.Include = []string{"[bad"}; m.Exclude = nil },
		func() { m.Include = nil; m.Exclude = []string{"[bad"} },
	} {
		set()
		if _, err := m.Expand(); err == nil || !strings.Contains(err.Error(), "[bad") {
			t.Fatalf("malformed pattern must fail expansion, got err=%v", err)
		}
	}
}

type failingSink struct {
	after  int
	emits  int
	closed bool
}

func (f *failingSink) Emit(Record) error {
	f.emits++
	if f.emits > f.after {
		return fmt.Errorf("sink full")
	}
	return nil
}
func (f *failingSink) Close() error { f.closed = true; return nil }

func TestRunSinkFailureStillDrainsAndCloses(t *testing.T) {
	m := testMatrix(t, []Model{fakeModel("m", flat(1))}, []string{"INT01", "INT02", "INT03"},
		[]predictor.Scenario{predictor.ScenarioA}, []int{40})
	sink := &failingSink{after: 1}
	sum, err := Run(m, Config{Parallelism: 2}, sink)
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("emit failure must surface, got %v", err)
	}
	if !sink.closed {
		t.Fatal("sink must be closed even after an emit failure")
	}
	if sum.Jobs != 3 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestSelectTraces(t *testing.T) {
	all, err := SelectTraces(nil)
	if err != nil || len(all) != 40 {
		t.Fatalf("default selection = %d traces, err=%v", len(all), err)
	}
	ints, err := SelectTraces([]string{"INT*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ints) != 8 {
		t.Fatalf("INT* matched %d, want 8", len(ints))
	}
	if _, err := SelectTraces([]string{"NOPE*"}); err == nil {
		t.Fatal("no-match pattern must error")
	}
	if _, err := SelectTraces([]string{"[bad"}); err == nil {
		t.Fatal("malformed pattern must error")
	}
	// Dedup across overlapping patterns, suite order preserved.
	both, err := SelectTraces([]string{"INT0[12]", "INT01"})
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != 2 || both[0].Name != "INT01" || both[1].Name != "INT02" {
		t.Fatalf("overlap selection = %v", both)
	}
}

func TestParseScenarios(t *testing.T) {
	scs, err := ParseScenarios("a, C")
	if err != nil {
		t.Fatal(err)
	}
	want := []predictor.Scenario{predictor.ScenarioA, predictor.ScenarioC}
	if !reflect.DeepEqual(scs, want) {
		t.Fatalf("scs = %v, want %v", scs, want)
	}
	for _, bad := range []string{"", "X", "A,A", "I,A,Q"} {
		if _, err := ParseScenarios(bad); err == nil {
			t.Fatalf("ParseScenarios(%q) must fail", bad)
		}
	}
}

type collectSink struct {
	recs   []Record
	closed bool
}

func (c *collectSink) Emit(r Record) error { c.recs = append(c.recs, r); return nil }
func (c *collectSink) Close() error        { c.closed = true; return nil }

func TestRunStreamsInExpansionOrder(t *testing.T) {
	m := testMatrix(t,
		[]Model{fakeModel("m1", flat(3)), fakeModel("m2", flat(5))},
		[]string{"INT01", "MM05"},
		[]predictor.Scenario{predictor.ScenarioA},
		[]int{50})
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	sum, err := Run(m, Config{Parallelism: 3}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 4 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if !sink.closed {
		t.Fatal("sink not closed")
	}
	for i, j := range jobs {
		r := sink.recs[i]
		if r.Kind != KindCell || r.Key() != j.Key() {
			t.Fatalf("record %d = %s (%s), want cell %s", i, r.Key(), r.Kind, j.Key())
		}
		if r.Seed != j.Seed {
			t.Fatalf("record %d seed mismatch", i)
		}
	}
	// Aggregates follow the cells: per model -> category, hard, suite.
	aggs := sink.recs[4:]
	wantKinds := []string{
		KindCategory, KindCategory, KindHard, KindSuite, // m1: INT, MM
		KindCategory, KindCategory, KindHard, KindSuite, // m2
	}
	if len(aggs) != len(wantKinds) {
		t.Fatalf("got %d aggregates, want %d: %+v", len(aggs), len(wantKinds), aggs)
	}
	for i, k := range wantKinds {
		if aggs[i].Kind != k {
			t.Fatalf("agg %d kind = %s, want %s", i, aggs[i].Kind, k)
		}
	}
	// MM05 is a hard trace; INT01 is too, so hard covers both cells here.
	if aggs[2].Cells != 2 {
		t.Fatalf("hard rollup covers %d cells, want 2", aggs[2].Cells)
	}
	if aggs[3].MPKI != 3 || aggs[3].MPKISum != 6 {
		t.Fatalf("m1 suite mean/sum = %v/%v, want 3/6", aggs[3].MPKI, aggs[3].MPKISum)
	}
}

func TestRunIsolatesPanickingJobs(t *testing.T) {
	exploding := Model{Name: "boom", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
		if tr.Name == "INT02" {
			panic("predictor exploded")
		}
		return sim.Result{MPKI: 1}
	}}
	m := testMatrix(t, []Model{exploding}, []string{"INT01", "INT02", "INT03"},
		[]predictor.Scenario{predictor.ScenarioA}, []int{40})
	sink := &collectSink{}
	sum, err := Run(m, Config{Parallelism: 2}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 3 || sum.Failed != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	bad := sink.recs[1]
	if !bad.Failed() || !strings.Contains(bad.Err, "predictor exploded") {
		t.Fatalf("failed record = %+v", bad)
	}
	// The failed cell is excluded from aggregation.
	for _, r := range sink.recs {
		if r.Kind == KindSuite && r.Cells != 2 {
			t.Fatalf("suite aggregate covers %d cells, want 2", r.Cells)
		}
	}
}

// TestRunIsolatesPanickingRunnerConstruction: a model whose pooled
// runner cannot even be built fails its cells like a panicking run does,
// instead of killing the worker that tried.
func TestRunIsolatesPanickingRunnerConstruction(t *testing.T) {
	broken := fakeModel("broken", flat(1))
	broken.NewRunner = func() func(*trace.Trace, sim.Options) sim.Result { panic("no tables") }
	m := testMatrix(t, []Model{broken}, []string{"INT01", "INT02"},
		[]predictor.Scenario{predictor.ScenarioA}, []int{40})
	sum, err := Run(m, Config{Parallelism: 2}, &collectSink{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 2 || !strings.Contains(sum.Merged[0].Err, "no tables") {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestRunRealPredictorDeterministic(t *testing.T) {
	real := Model{Name: "gshare12", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
		return sim.Pooled(gshare.New(12))(tr, opt)
	}}
	m := testMatrix(t, []Model{real}, []string{"CLIENT01", "INT01"},
		[]predictor.Scenario{predictor.ScenarioA, predictor.ScenarioB}, []int{2000})
	run := func(cfg Config) []Record {
		sink := &collectSink{}
		if _, err := Run(m, cfg, sink); err != nil {
			t.Fatal(err)
		}
		return sink.recs
	}
	a := run(Config{Parallelism: 4})
	b := run(Config{Parallelism: 1, NoTraceCache: true})
	// Wall-clock telemetry legitimately varies between runs; every
	// measurement field must match exactly.
	clearTiming := func(recs []Record) {
		for i := range recs {
			recs[i].ElapsedSec = 0
			recs[i].BranchesPerSec = 0
		}
	}
	clearTiming(a)
	clearTiming(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("records differ across parallelism/caching:\n%+v\n%+v", a, b)
	}
	if a[0].MPKI <= 0 || a[0].Mispredicts == 0 {
		t.Fatalf("suspicious real-run record: %+v", a[0])
	}
}

// TestCachedTraceDroppedAfterItsLastPass: the trace cache holds a trace
// only until the last pass that reads it finishes, so by the time that
// trace's last cell is visited the trace is collectable. The fake model
// returns no Also results, so the later passes also run as requeued
// single cells.
func TestCachedTraceDroppedAfterItsLastPass(t *testing.T) {
	for _, par := range []int{1, 2} {
		var mu sync.Mutex
		seen := make(map[string]weak.Pointer[trace.Trace])
		mdl := fakeModel("m", flat(1))
		run := mdl.Run
		mdl.Run = func(tr *trace.Trace, opt sim.Options) sim.Result {
			mu.Lock()
			seen[tr.Name] = weak.Make(tr)
			mu.Unlock()
			return run(tr, opt)
		}
		m := testMatrix(t, []Model{mdl}, []string{"INT01", "INT02", "MM05", "WS03"},
			[]predictor.Scenario{predictor.ScenarioA, predictor.ScenarioC}, []int{500})
		jobs, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		executeJobs(jobs, Config{Parallelism: par}, nil, nil, func(r Record) {
			if r.Scenario != "C" { // C is each trace's last cell
				return
			}
			runtime.GC()
			mu.Lock()
			defer mu.Unlock()
			if seen[r.Trace].Value() != nil {
				t.Errorf("parallelism %d: trace %s still held after its last cell", par, r.Trace)
			}
		})
	}
}

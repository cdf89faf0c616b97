package harness

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
)

// pooledTage is a real TAGE whose pooled runner fuses scenarios over one
// front end.
func pooledTage() Model {
	cfg := tage.Scale(tage.Reference(), -2)
	newRunner := func() func(tr *trace.Trace, opt sim.Options) sim.Result {
		return sim.Pooled[tage.Ctx](tage.New(cfg))
	}
	return Model{
		Name:      "tage-2",
		Run:       func(tr *trace.Trace, opt sim.Options) sim.Result { return newRunner()(tr, opt) },
		NewRunner: newRunner,
	}
}

var allScenarios = []predictor.Scenario{predictor.ScenarioI, predictor.ScenarioA, predictor.ScenarioB, predictor.ScenarioC}

// singleCells runs every job of m alone, so no pass holds two cells:
// the ground truth fused passes must reproduce.
func singleCells(t *testing.T, m *Matrix) []Record {
	t.Helper()
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	for _, j := range jobs {
		sum, err := RunJobs([]Job{j}, Config{Parallelism: 1, NoAggregates: true}, Discard)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sum.Records...)
	}
	return out
}

// TestFusedPassesMatchSingleCells: a matrix whose scenarios share a
// model, trace and length runs them as passes — over one TAGE front end,
// or sequentially for gshare — and every record equals its single run,
// at any parallelism.
func TestFusedPassesMatchSingleCells(t *testing.T) {
	m := testMatrix(t, []Model{pooledTage(), pooledGshare(nil)}, []string{"INT01", "MM05"}, allScenarios, []int{3000})
	want := scrubTiming(singleCells(t, m))
	// At 8 workers the four passes split in two to keep them busy.
	for _, par := range []int{1, 3, 8} {
		sum, err := Run(m, Config{Parallelism: par, NoAggregates: true}, Discard)
		if err != nil {
			t.Fatal(err)
		}
		if got := scrubTiming(sum.Records); !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: fused records diverge from single cells\n got: %+v\nwant: %+v", par, got, want)
		}
	}
}

// TestShortAlsoResultsRunSingly: a run function that returns fewer Also
// results than it was asked for has the rest of its pass run singly.
func TestShortAlsoResultsRunSingly(t *testing.T) {
	mdl := pooledTage()
	var calls atomic.Int64
	inner := mdl.NewRunner
	mdl.NewRunner = func() func(*trace.Trace, sim.Options) sim.Result {
		run := inner()
		return func(tr *trace.Trace, opt sim.Options) sim.Result {
			calls.Add(1)
			r := run(tr, opt)
			if len(r.Also) > 1 {
				r.Also = r.Also[:1]
			}
			return r
		}
	}
	m := testMatrix(t, []Model{mdl}, []string{"INT01"}, allScenarios, []int{2000})
	want := scrubTiming(singleCells(t, m))
	calls.Store(0)
	sum, err := Run(m, Config{Parallelism: 1, NoAggregates: true}, Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := scrubTiming(sum.Records); !reflect.DeepEqual(got, want) {
		t.Fatalf("records diverge from single cells\n got: %+v\nwant: %+v", got, want)
	}
	// One pass for I with A, then B and C singly.
	if n := calls.Load(); n != 3 {
		t.Fatalf("run function called %d times, want 3", n)
	}
}

// TestNonSharingModelRunsLaterPassesUnfused: once a model's run function
// returns no Also results, its later passes go back to the queue as
// single cells, which any worker can take.
func TestNonSharingModelRunsLaterPassesUnfused(t *testing.T) {
	mdl := pooledGshare(nil)
	var fused atomic.Int64
	inner := mdl.NewRunner
	mdl.NewRunner = func() func(*trace.Trace, sim.Options) sim.Result {
		run := inner()
		return func(tr *trace.Trace, opt sim.Options) sim.Result {
			if len(opt.Also) > 0 {
				fused.Add(1)
			}
			return run(tr, opt)
		}
	}
	m := testMatrix(t, []Model{mdl}, []string{"INT01", "INT02", "MM05"}, allScenarios, []int{1000})
	want := scrubTiming(singleCells(t, m))
	sum, err := Run(m, Config{Parallelism: 1, NoAggregates: true}, Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := scrubTiming(sum.Records); !reflect.DeepEqual(got, want) {
		t.Fatalf("records diverge from single cells\n got: %+v\nwant: %+v", got, want)
	}
	if n := fused.Load(); n != 1 {
		t.Fatalf("%d passes asked for Also results, want 1: the later ones split", n)
	}
}

// TestPassesKeepEveryWorkerBusy: a pass runs on one goroutine, so the
// plan splits passes while there are fewer of them than workers.
func TestPassesKeepEveryWorkerBusy(t *testing.T) {
	m := testMatrix(t, []Model{fakeModel("m", flat(1))}, []string{"INT01"}, allScenarios, []int{100})
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for workers, want := range map[int][][]int{
		1: {{0, 1, 2, 3}},
		2: {{0, 1}, {2, 3}},
		3: {{0}, {1}, {2, 3}},
		4: {{0}, {1}, {2}, {3}},
		6: {{0}, {1}, {2}, {3}},
	} {
		if got := planPasses(jobs, true, workers); !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: passes %v, want %v", workers, got, want)
		}
	}
}

// TestRetiredBranchesCountEveryCell: a pass retires each branch once per
// lane, so the retired-branch counter still sums the cells' branches.
func TestRetiredBranchesCountEveryCell(t *testing.T) {
	reg := metrics.NewRegistry()
	m := testMatrix(t, []Model{pooledTage(), pooledGshare(nil)}, []string{"INT01", "MM05"}, allScenarios, []int{3000})
	sum, err := Run(m, Config{Parallelism: 1, NoAggregates: true, Metrics: reg}, Discard)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, r := range sum.Records {
		want += r.SimBranches
	}
	if got := reg.Snapshot().Value(sim.MetricBranchesRetired); got != float64(want) {
		t.Fatalf("%s = %v, want the cells' %d", sim.MetricBranchesRetired, got, want)
	}
}

// TestPanicFailsEveryCellOfItsPass: a pass is one simulation, so a panic
// in it fails all of its cells and no other.
func TestPanicFailsEveryCellOfItsPass(t *testing.T) {
	mdl := fakeModel("boom", flat(1))
	inner := mdl.Run
	mdl.Run = func(tr *trace.Trace, opt sim.Options) sim.Result {
		if tr.Name == "INT02" {
			panic("pass exploded")
		}
		return inner(tr, opt)
	}
	m := testMatrix(t, []Model{mdl}, []string{"INT01", "INT02"},
		[]predictor.Scenario{predictor.ScenarioA, predictor.ScenarioC}, []int{40})
	sum, err := Run(m, Config{Parallelism: 1, NoAggregates: true}, Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sum.Records {
		if failed := r.Trace == "INT02"; r.Failed() != failed || (failed && !strings.Contains(r.Err, "pass exploded")) {
			t.Errorf("%s: failed=%v (%q), want failed=%v", r.Key(), r.Failed(), r.Err, failed)
		}
	}
}

// TestWorkerKeepsRunnersAcrossLeases: a worker serving consecutive
// leases of one model builds its predictor once; a lease of another
// model drops the first model's runner, so the worker holds one lease's
// models at a time.
func TestWorkerKeepsRunnersAcrossLeases(t *testing.T) {
	_, srv := newTestService(t, time.Minute, "")
	reg := metrics.NewRegistry()
	var built atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerOptions{
			BaseURL: srv.URL,
			ID:      "reuser",
			Resolve: func(spec string) (Model, error) {
				m := pooledGshare(&built)
				m.Name = spec
				return m, nil
			},
			Config: Config{Parallelism: 1, Metrics: reg},
			Poll:   10 * time.Millisecond,
		})
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	}()

	sweep := func(model, tr string) {
		t.Helper()
		for _, r := range submitSweep(t, srv.URL, SweepRequest{
			Models: []string{model}, Traces: []string{tr}, Scenarios: "A,C", Branches: []int{500}, NoAggregates: true,
		}) {
			if r.Failed() {
				t.Fatalf("%s: %s", r.Key(), r.Err)
			}
		}
	}
	misses := func() float64 { return reg.Snapshot().Value(MetricPredictorPoolMisses) }
	sweep("m1", "INT01")
	sweep("m1", "INT02")
	if got, n := misses(), built.Load(); got != 1 || n != 1 {
		t.Fatalf("two leases of one model: %v pool misses, %d predictors built; want 1 and 1", got, n)
	}
	sweep("m2", "INT01")
	sweep("m1", "INT01")
	if got := misses(); got != 3 {
		t.Fatalf("after leases of m2 then m1: %v pool misses, want 3 (m1 rebuilt once dropped)", got)
	}
}

// TestWorkerLeaseSpanningTwoModelsKeepsTheLast: a lease whose cells run
// m1 and then m2 ends holding only m2's runner, so m1's is collectable,
// and the next lease of m2 reuses the runner it kept.
func TestWorkerLeaseSpanningTwoModelsKeepsTheLast(t *testing.T) {
	_, srv := newTestService(t, time.Minute, "")
	reg := metrics.NewRegistry()
	rt := newRunnerTracker()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerOptions{
			BaseURL: srv.URL,
			ID:      "spanner",
			Resolve: func(spec string) (Model, error) { return rt.model(spec), nil },
			Config:  Config{Parallelism: 1, Metrics: reg},
			Poll:    10 * time.Millisecond,
		})
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	}()

	sweep := func(models ...string) {
		t.Helper()
		// The test queue leases two cells at a time: one cell per model
		// makes the two-model sweep one lease.
		for _, r := range submitSweep(t, srv.URL, SweepRequest{
			Models: models, Traces: []string{"INT01"}, Scenarios: "A", Branches: []int{500}, NoAggregates: true,
		}) {
			if r.Failed() {
				t.Fatalf("%s: %s", r.Key(), r.Err)
			}
		}
	}
	sweep("m1", "m2")
	for name, want := range map[string]int{"m1": 0, "m2": 1} {
		if built, held := rt.counts(name); built != 1 || held != want {
			t.Fatalf("after a lease of m1 then m2: %s runners built %d, held %d; want 1 and %d", name, built, held, want)
		}
	}
	sweep("m2")
	s := reg.Snapshot()
	if hits, misses := s.Value(MetricPredictorPoolHits), s.Value(MetricPredictorPoolMisses); hits != 1 || misses != 2 {
		t.Fatalf("next lease of m2: pool hits=%v misses=%v, want 1 and 2", hits, misses)
	}
}

// TestWorkerCompletesLeaseTooShortToHeartbeat: a granted TTL whose third
// rounds to zero must not reach time.NewTicker (which panics, killing
// the worker); the worker heartbeats at the default TTL's pace instead
// and completes the lease.
func TestWorkerCompletesLeaseTooShortToHeartbeat(t *testing.T) {
	var granted atomic.Bool
	posted := make(chan []Record, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		if granted.Swap(true) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		json.NewEncoder(w).Encode(Lease{ID: "l1", Worker: "w", TTLSeconds: 2e-9, Jobs: []WireJob{
			{Model: "fm", Trace: "INT01", Scenario: "A", Branches: 100},
		}})
	})
	mux.HandleFunc("/v1/renew", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/v1/results", func(w http.ResponseWriter, r *http.Request) {
		recs, err := ReadRecords(r.Body)
		if err != nil {
			t.Errorf("reading results: %v", err)
		}
		posted <- recs
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerOptions{BaseURL: srv.URL, ID: "w", Resolve: fakeResolver(3), Poll: 10 * time.Millisecond})
	}()
	select {
	case recs := <-posted:
		if len(recs) != 1 || recs[0].Failed() {
			t.Errorf("want one completed cell, got %+v", recs)
		}
	case <-time.After(10 * time.Second):
		t.Error("the worker never completed the lease")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

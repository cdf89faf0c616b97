package harness

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"repro/internal/gshare"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pooledGshare is a real predictor with both run paths wired: Run
// constructs cold (like every model before the pool existed), NewRunner
// reuses one Reset instance. constructions counts how many predictors
// were actually built, which is what the pool is supposed to save.
func pooledGshare(constructions *atomic.Int64) Model {
	mk := func() predictor.Predictor[gshare.Ctx] {
		if constructions != nil {
			constructions.Add(1)
		}
		return gshare.New(12)
	}
	return Model{
		Name: "gshare12",
		Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
			return sim.Pooled(mk())(tr, opt)
		},
		NewRunner: func() func(tr *trace.Trace, opt sim.Options) sim.Result {
			return sim.Pooled(mk())
		},
	}
}

func clearTiming(recs []Record) {
	for i := range recs {
		recs[i].ElapsedSec = 0
		recs[i].BranchesPerSec = 0
	}
}

// TestPredictorPoolReusesAndMeters: one worker running N cells of the
// same model constructs exactly one predictor, and the hit/miss
// counters account every arena lookup. The pooled records must match
// cold construction (the same model without a NewRunner hook) exactly.
func TestPredictorPoolReusesAndMeters(t *testing.T) {
	traces := []string{"INT01", "INT02", "MM05", "WS01"}
	run := func(cfg Config, mdl Model) []Record {
		m := testMatrix(t, []Model{mdl}, traces,
			[]predictor.Scenario{predictor.ScenarioA}, []int{500})
		sink := &collectSink{}
		if _, err := Run(m, cfg, sink); err != nil {
			t.Fatal(err)
		}
		return sink.recs
	}

	reg := metrics.NewRegistry()
	var pooledCtor atomic.Int64
	pooled := run(Config{Parallelism: 1, Metrics: reg}, pooledGshare(&pooledCtor))
	if got := pooledCtor.Load(); got != 1 {
		t.Fatalf("pooled run constructed %d predictors, want 1", got)
	}
	s := reg.Snapshot()
	if hits, misses := s.Value(MetricPredictorPoolHits), s.Value(MetricPredictorPoolMisses); hits != 3 || misses != 1 {
		t.Fatalf("pool hits=%v misses=%v, want 3/1", hits, misses)
	}

	var coldCtor atomic.Int64
	coldModel := pooledGshare(&coldCtor)
	coldModel.NewRunner = nil
	cold := run(Config{Parallelism: 1}, coldModel)
	if got := coldCtor.Load(); got != int64(len(traces)) {
		t.Fatalf("cold run constructed %d predictors, want %d", got, len(traces))
	}
	clearTiming(pooled)
	clearTiming(cold)
	if !reflect.DeepEqual(pooled, cold) {
		t.Fatalf("pooled records diverge from cold construction:\n%+v\nvs\n%+v", pooled, cold)
	}
}

// TestColdModelReportsNoPoolTraffic: a model without a NewRunner hook
// runs through its cold Run and leaves the pool counters silent,
// mirroring the trace-cache convention.
func TestColdModelReportsNoPoolTraffic(t *testing.T) {
	reg := metrics.NewRegistry()
	cold := pooledGshare(nil)
	cold.NewRunner = nil
	m := testMatrix(t, []Model{cold}, []string{"INT01", "INT02"},
		[]predictor.Scenario{predictor.ScenarioA}, []int{200})
	if _, err := Run(m, Config{Parallelism: 1, Metrics: reg}, &collectSink{}); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if h, ms := s.Value(MetricPredictorPoolHits), s.Value(MetricPredictorPoolMisses); h != 0 || ms != 0 {
		t.Fatalf("pool traffic from a model without NewRunner: hits=%v misses=%v", h, ms)
	}
}

// runnerTracker hands out fake models whose pooled runners each hold a
// block of state it tracks by weak pointer, so a test can tell how many
// runners of a model were built and how many are still held.
type runnerTracker struct {
	mu    sync.Mutex
	built map[string][]weak.Pointer[[4096]byte]
}

func newRunnerTracker() *runnerTracker {
	return &runnerTracker{built: make(map[string][]weak.Pointer[[4096]byte])}
}

// model is fakeModel(name) with a tracked pooled runner. Like every fake
// model it returns no Also results, so its later passes run as singles.
func (rt *runnerTracker) model(name string) Model {
	mdl := fakeModel(name, flat(1))
	run := mdl.Run
	mdl.NewRunner = func() func(*trace.Trace, sim.Options) sim.Result {
		state := new([4096]byte)
		rt.mu.Lock()
		rt.built[name] = append(rt.built[name], weak.Make(state))
		rt.mu.Unlock()
		return func(tr *trace.Trace, opt sim.Options) sim.Result {
			state[0]++
			return run(tr, opt)
		}
	}
	return mdl
}

// counts reports how many runners of name were built and how many of
// them survive a collection.
func (rt *runnerTracker) counts(name string) (built, held int) {
	runtime.GC()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, p := range rt.built[name] {
		if p.Value() != nil {
			held++
		}
	}
	return len(rt.built[name]), held
}

// TestRunnerDroppedAfterItsModelsLastPass: a worker that starts a pass
// of another model, with no pass of its previous model queued, drops the
// previous model's runner, and returns holding only the runner of the
// model it ran last.
func TestRunnerDroppedAfterItsModelsLastPass(t *testing.T) {
	rt := newRunnerTracker()
	m := testMatrix(t, []Model{rt.model("m1"), rt.model("m2")}, []string{"INT01", "INT02"},
		[]predictor.Scenario{predictor.ScenarioA}, []int{100})
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	pool := &runnerPool{}
	executeJobs(jobs, Config{Parallelism: 1}, nil, pool, func(r Record) {
		if r.Model != "m2" {
			return
		}
		// m2's first pass started after m1's last one.
		if built, held := rt.counts("m1"); built != 1 || held != 0 {
			t.Errorf("at %s: m1 runners built %d, held %d; want 1 and 0", r.Key(), built, held)
		}
	})
	for name, want := range map[string]int{"m1": 0, "m2": 1} {
		if built, held := rt.counts(name); built != 1 || held != want {
			t.Errorf("after the run: %s runners built %d, held %d; want 1 and %d", name, built, held, want)
		}
	}
	runtime.KeepAlive(pool)
}

// TestRunnerKeptWhileItsModelHasAQueuedPass: a model whose later passes
// go back to the queue as single cells keeps its runner while one of
// them is queued, even while the worker runs another model's passes in
// between, so the pool never builds a runner twice on one worker.
func TestRunnerKeptWhileItsModelHasAQueuedPass(t *testing.T) {
	for _, par := range []int{1, 2} {
		rt := newRunnerTracker()
		m := testMatrix(t, []Model{rt.model("m1"), rt.model("m2")}, []string{"INT01", "INT02", "MM05"},
			[]predictor.Scenario{predictor.ScenarioA, predictor.ScenarioC}, []int{100})
		if _, err := Run(m, Config{Parallelism: par, NoAggregates: true}, Discard); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"m1", "m2"} {
			if built, _ := rt.counts(name); built < 1 || built > par {
				t.Errorf("parallelism %d: %d runners of %s built, want 1 to %d", par, built, name, par)
			}
		}
	}
}

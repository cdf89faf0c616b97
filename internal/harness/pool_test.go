package harness

import (
	"reflect"
	"sync/atomic"
	"testing"

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

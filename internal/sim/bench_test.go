package sim

import (
	"reflect"
	"testing"

	"repro/internal/composed"
	"repro/internal/gshare"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/rng"
	"repro/internal/tage"
	"repro/internal/trace"
)

// benchTrace builds a deterministic synthetic branch stream: a few hundred
// static branches mixing history-correlated conditionals, biased branches
// and loop exits, so the predict/resolve/retire path sees realistic table
// traffic without depending on the workload package.
func benchTrace(n int) *trace.Trace {
	r := rng.NewXoshiro(0xbe9c)
	tb := trace.NewBuilder("bench-synth", "BENCH", n)
	hist := uint32(0)
	for i := 0; i < n; i++ {
		slot := r.Intn(400)
		pc := uint64(0x40_0000 + slot*4)
		var taken bool
		switch slot % 3 {
		case 0: // history-correlated
			taken = (hist>>2)&1 == 1
		case 1: // biased
			taken = r.Bool(0.85)
		default: // loop-like: taken except every 7th occurrence
			taken = i%7 != 0
		}
		tb.Add(trace.Branch{PC: pc, Taken: taken, OpsBefore: uint8(r.Intn(7))})
		hist = hist<<1 | uint32(b2i(taken))
	}
	return tb.Trace()
}

// benchPredictRetire measures the full per-branch hot path — Predict,
// OnResolve, pipeline bookkeeping, Retire — on a warmed predictor, so
// ns/op is nanoseconds per branch in steady state.
func benchPredictRetire[C any](b *testing.B, p predictor.Predictor[C], sc predictor.Scenario) {
	b.ReportAllocs()
	tr := benchTrace(100000)
	opt := Options{Scenario: sc}
	runTrace(p, tr, opt) // warm the tables
	b.ResetTimer()
	for i := 0; i < b.N; i += tr.Len() {
		runTrace(p, tr, opt)
	}
}

// BenchmarkPredictRetire tracks simulator branches/sec per model and
// update scenario; BENCH_baseline.json records the trajectory.
func BenchmarkPredictRetire(b *testing.B) {
	b.Run("tage-ref/A", func(b *testing.B) {
		benchPredictRetire(b, tage.New(tage.Reference()), predictor.ScenarioA)
	})
	b.Run("tage-ref/B", func(b *testing.B) {
		benchPredictRetire(b, tage.New(tage.Reference()), predictor.ScenarioB)
	})
	b.Run("gshare/A", func(b *testing.B) {
		benchPredictRetire(b, gshare.New(18), predictor.ScenarioA)
	})
	b.Run("gshare/B", func(b *testing.B) {
		benchPredictRetire(b, gshare.New(18), predictor.ScenarioB)
	})
	// The composite stacks, whose IUM, SLIM and SLHM rings are searched
	// on every prediction.
	b.Run("isl-tage/A", func(b *testing.B) {
		benchPredictRetire(b, composed.New(composed.ISLTAGE(tage.Reference(), "ISL-TAGE")), predictor.ScenarioA)
	})
	b.Run("tage-lsc/A", func(b *testing.B) {
		benchPredictRetire(b, composed.New(composed.TAGELSC(composed.Budget512K(), "TAGE-LSC")), predictor.ScenarioA)
	})
	// One pass of two scenarios over one shared front end: ns/op is per
	// branch of the pass, which yields both cells. Each pass starts cold,
	// unlike the warmed single runs above.
	b.Run("tage-ref/A+B", func(b *testing.B) {
		b.ReportAllocs()
		tr := benchTrace(100000)
		run := Pooled[tage.Ctx](tage.New(tage.Reference()))
		opt := Options{Scenario: predictor.ScenarioA, Also: []predictor.Scenario{predictor.ScenarioB}}
		run(tr, opt)
		b.ResetTimer()
		for i := 0; i < b.N; i += tr.Len() {
			run(tr, opt)
		}
	})
}

// skipAllocsUnderRace skips an allocation-count assertion in a race
// build, where the detector's own allocations make the count vary with
// the work done.
func skipAllocsUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// TestRunZeroAllocSteadyState asserts the zero-allocation contract of the
// hot path: growing the trace must not grow the allocation count of a
// one-shot run (i.e. 0 allocs/branch in steady state; the fixed
// per-run setup — the in-flight ring and retire-time array — is bounded
// separately).
func TestRunZeroAllocSteadyState(t *testing.T) {
	skipAllocsUnderRace(t)
	short := benchTrace(2000)
	long := benchTrace(8000)
	models := []struct {
		name  string
		run   func(tr *trace.Trace, opt Options)
		scens []predictor.Scenario
	}{
		{
			name: "tage-ref",
			run: func() func(tr *trace.Trace, opt Options) {
				p := tage.New(tage.Reference())
				return func(tr *trace.Trace, opt Options) { runTrace(p, tr, opt) }
			}(),
			scens: []predictor.Scenario{predictor.ScenarioA, predictor.ScenarioB},
		},
		{
			name: "gshare",
			run: func() func(tr *trace.Trace, opt Options) {
				p := gshare.New(18)
				return func(tr *trace.Trace, opt Options) { runTrace(p, tr, opt) }
			}(),
			scens: []predictor.Scenario{predictor.ScenarioA},
		},
	}
	for _, m := range models {
		for _, sc := range m.scens {
			opt := Options{Scenario: sc}
			m.run(long, opt) // warm up (predictor state and any lazy runtime work)
			allocsShort := testing.AllocsPerRun(10, func() { m.run(short, opt) })
			allocsLong := testing.AllocsPerRun(10, func() { m.run(long, opt) })
			if allocsLong != allocsShort {
				t.Errorf("%s/%s: allocs grow with trace length (%v for 2k branches, %v for 8k): hot path allocates per branch",
					m.name, sc, allocsShort, allocsLong)
			}
			// The fixed per-run overhead must stay small and accounted for:
			// the ring, the retireAt array, and the retire closure context.
			if allocsShort > 8 {
				t.Errorf("%s/%s: %v allocations per run, want <= 8 fixed setup allocations",
					m.name, sc, allocsShort)
			}
		}
	}
}

// TestRunZeroAllocSteadyStatePooled asserts the pooled contract: a Runner
// re-running a Reset predictor over a materialised trace performs ZERO
// allocations per run — no ring, no retire-time array, no trace reader, no
// decode buffer, no telemetry handle resolution — with and without a live
// metrics registry. This is what lets the harness predictor pool run
// repeated cells allocation-free end to end.
func TestRunZeroAllocSteadyStatePooled(t *testing.T) {
	skipAllocsUnderRace(t)
	tr := benchTrace(2000)
	t.Run("tage-ref", func(t *testing.T) {
		p := tage.New(tage.Reference())
		var rn Runner[tage.Ctx]
		opt := Options{Scenario: predictor.ScenarioA}
		rn.RunTrace(p, tr, opt) // first run owns the buffer allocations
		allocs := testing.AllocsPerRun(10, func() {
			p.Reset()
			rn.RunTrace(p, tr, opt)
		})
		if allocs != 0 {
			t.Errorf("pooled tage run: %v allocs per run, want 0", allocs)
		}
	})
	t.Run("gshare", func(t *testing.T) {
		p := gshare.New(18)
		var rn Runner[gshare.Ctx]
		opt := Options{Scenario: predictor.ScenarioB}
		rn.RunTrace(p, tr, opt)
		allocs := testing.AllocsPerRun(10, func() {
			p.Reset()
			rn.RunTrace(p, tr, opt)
		})
		if allocs != 0 {
			t.Errorf("pooled gshare run: %v allocs per run, want 0", allocs)
		}
	})
	t.Run("tage-ref/metrics", func(t *testing.T) {
		reg := metrics.NewRegistry()
		p := tage.New(tage.Reference())
		var rn Runner[tage.Ctx]
		opt := Options{Scenario: predictor.ScenarioA, Metrics: reg}
		rn.RunTrace(p, tr, opt) // resolves and caches the telemetry handles
		allocs := testing.AllocsPerRun(10, func() {
			p.Reset()
			rn.RunTrace(p, tr, opt)
		})
		if allocs != 0 {
			t.Errorf("pooled instrumented run: %v allocs per run, want 0", allocs)
		}
		if got := reg.Snapshot().Value(MetricBranchesRetired); got <= 0 {
			t.Fatalf("%s = %v after pooled instrumented runs", MetricBranchesRetired, got)
		}
	})
}

// TestRunnerMatchesFresh asserts byte-identical results between the pooled
// path (one predictor + Runner, Reset between runs) and the one-shot path
// (fresh predictor and Runner per run), across scenarios.
func TestRunnerMatchesFresh(t *testing.T) {
	tr := benchTrace(6000)
	for _, sc := range []predictor.Scenario{
		predictor.ScenarioI, predictor.ScenarioA,
		predictor.ScenarioB, predictor.ScenarioC,
	} {
		opt := Options{Scenario: sc}
		pooled := tage.New(tage.Reference())
		var rn Runner[tage.Ctx]
		rn.RunTrace(pooled, tr, opt) // dirty the pool
		pooled.Reset()
		got := rn.RunTrace(pooled, tr, opt)
		want := runTrace(tage.New(tage.Reference()), tr, opt)
		// Zero out wall-clock telemetry: never part of the contract.
		got.Elapsed, got.BranchesPerSec = 0, 0
		want.Elapsed, want.BranchesPerSec = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pooled Reset run diverges from fresh run:\n  pooled: %+v\n  fresh:  %+v", sc, got, want)
		}
	}
}

// BenchmarkCellSetup compares the cost of standing up one simulation cell:
// "fresh" pays tage.New plus the per-run buffer allocations of a one-shot
// Runner; "pooled" reuses a warmed predictor and Runner via Reset. The
// trace is short so setup, not simulation, dominates.
func BenchmarkCellSetup(b *testing.B) {
	tr := benchTrace(512)
	opt := Options{Scenario: predictor.ScenarioA}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runTrace(tage.New(tage.Reference()), tr, opt)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		p := tage.New(tage.Reference())
		var rn Runner[tage.Ctx]
		rn.RunTrace(p, tr, opt)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Reset()
			rn.RunTrace(p, tr, opt)
		}
	})
}

// TestRunZeroAllocSteadyStateWithMetrics asserts that attaching a live
// telemetry registry preserves 0 allocs/branch: the retired counter is
// resolved once per run and advanced once per decode batch, so the
// per-branch loop stays allocation-free. The fixed per-run budget grows
// by a few handle resolutions (counter lookup, flush CounterVec), and
// no more.
func TestRunZeroAllocSteadyStateWithMetrics(t *testing.T) {
	skipAllocsUnderRace(t)
	short := benchTrace(2000)
	long := benchTrace(8000)
	reg := metrics.NewRegistry()
	p := tage.New(tage.Reference())
	opt := Options{Scenario: predictor.ScenarioA, Metrics: reg}
	runTrace(p, long, opt) // warm up, and register the metric families
	allocsShort := testing.AllocsPerRun(10, func() { runTrace(p, short, opt) })
	allocsLong := testing.AllocsPerRun(10, func() { runTrace(p, long, opt) })
	if allocsLong != allocsShort {
		t.Errorf("allocs grow with trace length under telemetry (%v for 2k branches, %v for 8k): hot path allocates per branch",
			allocsShort, allocsLong)
	}
	if allocsShort > 12 {
		t.Errorf("%v allocations per instrumented run, want <= 12 fixed setup allocations", allocsShort)
	}
	if got := reg.Snapshot().Value(MetricBranchesRetired); got <= 0 {
		t.Fatalf("%s = %v after instrumented runs", MetricBranchesRetired, got)
	}
}

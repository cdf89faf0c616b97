package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// storeProvenance stamps the fig9 store's records the way a persisted
// sweep does, without asking git on every rep.
var storeProvenance = harness.Provenance{GitSHA: "benchmark", GoVersion: runtime.Version(), Schema: harness.SchemaVersion}

// --- fig9-sweep ---

// fig9Run writes the Figure 9 budget sweep into a fresh result store,
// then resumes the complete store, which must run and append nothing.
type fig9Run struct {
	e    *env
	jobs []harness.Job
	reps int // names each rep's store
}

func setupFig9(e *env) (instance, error) {
	specs := seeded(workload.All(), e.seed)
	jobs, _, err := expand([]string{"tage", "tage-lsc"}, specs, "A", e.sz.fig9, deltaRange(-4, 3))
	if err != nil {
		return nil, err
	}
	generateAll(specs, e.sz.fig9)
	jobs[0].Model.NewRunner()
	return &fig9Run{e: e, jobs: jobs}, nil
}

func (f *fig9Run) rep(sc *scope) (repOut, error) {
	f.reps++
	path := filepath.Join(f.e.dir, fmt.Sprintf("fig9-%d.jsonl", f.reps))
	jobs := tracedJobs(f.jobs, sc)
	cfg := harness.Config{Parallelism: f.e.par, Provenance: &storeProvenance}
	end := sc.open("store")
	first, err := harness.ResumeStoreFile(path, jobs, cfg, nil)
	end()
	if err != nil {
		return repOut{}, err
	}
	end = sc.open("store")
	again, err := harness.ResumeStoreFile(path, jobs, cfg, nil)
	end()
	if err != nil {
		return repOut{}, err
	}
	out := recordsOut(first, len(jobs))
	out.cleanup = func() { os.Remove(path) }
	if ran := again.Jobs - again.Skipped; ran != 0 || len(again.Records) != 0 {
		out.mismatches = append(out.mismatches, fmt.Sprintf("re-resuming the complete store ran %d cells and appended %d records", ran, len(again.Records)))
	}
	out.mismatches = append(out.mismatches, sameRecords("re-resumed store vs first pass", first.Merged, again.Merged)...)
	return out, nil
}

func (f *fig9Run) check() []string { return nil }

// probe measures the per-cell layers: harness overhead around the model
// calls, sink emits, aggregation, the trace cache and predictor pool,
// and the store's append and read-plan costs.
func (f *fig9Run) probe(m metricSet) error {
	cells := float64(len(f.jobs))
	cfg := harness.Config{Parallelism: 1, Provenance: &storeProvenance}
	// overhead runs the jobs at parallelism 1 and returns the time per
	// cell spent outside the model calls, in µs, with the run's spans.
	// Taking the simulation out this way keeps its noise out of the
	// small per-cell costs.
	overhead := func(run func([]harness.Job, *scope) error) (float64, []span, error) {
		tr := newTracer()
		sc := tr.scope("fig9-probe")
		runtime.GC()
		start := time.Now()
		err := run(tracedJobs(f.jobs, sc), sc)
		wall := time.Since(start).Seconds()
		spans := tr.snapshot()
		return (wall - spanTotals(spans)["model.cell"]) / cells * 1e6, spans, err
	}

	// Three pairs of the sweep without and with a store; the store's
	// append cost is the difference of their overheads.
	path := filepath.Join(f.e.dir, "fig9-probe.jsonl")
	defer os.Remove(path)
	var sum *harness.Summary
	var plain, emits, appends []float64
	for i := 0; i < 3; i++ {
		p, spans, err := overhead(func(jobs []harness.Job, sc *scope) (err error) {
			sum, err = harness.RunJobs(jobs, cfg, tracedSink(harness.NewJSONLSink(io.Discard), sc))
			return err
		})
		if err != nil {
			return err
		}
		os.Remove(path)
		s, _, err := overhead(func(jobs []harness.Job, _ *scope) error {
			_, err := harness.ResumeStoreFile(path, jobs, cfg, nil)
			return err
		})
		if err != nil {
			return err
		}
		plain = append(plain, p)
		emits = append(emits, spanTotals(spans)["sink.emit"]/float64(len(sum.Records))*1e6)
		appends = append(appends, s-p)
	}
	m.putSamples("harness.cell_overhead_us", "us", plain)
	m.putSamples("harness.sink_emit_us", "us", emits)
	m.putSamples("store.append_us", "us", appends)
	m.putSamples("harness.aggregate_ms", "ms", repeatTimed(5, func() { harness.Aggregate(sum.Merged) }, 1e3))
	var readErr error
	m.putSamples("store.read_plan_ms", "ms", repeatTimed(5, func() {
		recs, _, err := harness.ReadStoreFile(path)
		if err != nil {
			readErr = err
		}
		harness.PlanResume(f.jobs, recs, storeProvenance)
	}, 1e3))
	if readErr != nil {
		return readErr
	}

	// Trace-cache and predictor-pool hit ratios, from the registry.
	reg := metrics.NewRegistry()
	if _, err := harness.RunJobs(f.jobs, harness.Config{Parallelism: f.e.par, Metrics: reg}, harness.Discard); err != nil {
		return err
	}
	snap := reg.Snapshot()
	ratio := func(hits, misses string) float64 {
		h, n := snap.Value(hits), snap.Value(misses)
		return h / (h + n)
	}
	m.put("harness.trace_cache_hit_ratio", "ratio", ratio(harness.MetricTraceCacheHits, harness.MetricTraceCacheMisses))
	m.put("harness.pool_hit_ratio", "ratio", ratio(harness.MetricPredictorPoolHits, harness.MetricPredictorPoolMisses))
	return nil
}

func (f *fig9Run) close() {}

// spanTotals sums span durations, in seconds, by name.
func spanTotals(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		if s.End >= 0 {
			out[s.Name] += float64(s.End-s.Start) / 1e9
		}
	}
	return out
}

// repeatTimed runs fn n times and returns each run's duration in
// seconds times scale.
func repeatTimed(n int, fn func(), scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		fn()
		out[i] = time.Since(start).Seconds() * scale
	}
	return out
}

// --- warm-restart ---

// warmRun runs a cold pass that writes checkpoints into a fresh warm
// cache, then a warm pass that restores every cell from it.
type warmRun struct {
	e    *env
	jobs []harness.Job
	reg  *metrics.Registry // warm-cache hit and write-error counts
	reps int               // names each rep's cache
}

func setupWarm(e *env) (instance, error) {
	specs, err := namedSpecs(warmTraces, e.seed)
	if err != nil {
		return nil, err
	}
	jobs, _, err := expand([]string{"tage-lsc"}, specs, "A", e.sz.warm, deltaRange(-2, 2))
	if err != nil {
		return nil, err
	}
	generateAll(specs, e.sz.warm)
	jobs[0].Model.NewRunner()
	return &warmRun{e: e, jobs: jobs, reg: metrics.NewRegistry()}, nil
}

// warmCounts reads the warm-cache counters.
func (w *warmRun) warmCounts() (hits, writeErrs int) {
	s := w.reg.Snapshot()
	return int(s.Value(harness.MetricWarmCacheHits)), int(s.Value(harness.MetricWarmCacheWriteErrors))
}

func (w *warmRun) config(dir string) harness.Config {
	return harness.Config{Parallelism: w.e.par, WarmCache: dir, CheckpointEvery: w.e.sz.warmEvery, Metrics: w.reg}
}

func (w *warmRun) rep(sc *scope) (repOut, error) {
	w.reps++
	dir := filepath.Join(w.e.dir, fmt.Sprintf("warm-%d.ckpt", w.reps))
	jobs := tracedJobs(w.jobs, sc)
	cfg := w.config(dir)
	hits0, errs0 := w.warmCounts()
	end := sc.open("harness")
	cold, err := harness.RunJobs(jobs, cfg, harness.Discard)
	end()
	if err != nil {
		return repOut{}, err
	}
	hits1, _ := w.warmCounts()
	end = sc.open("harness")
	warm, err := harness.RunJobs(jobs, cfg, harness.Discard)
	end()
	if err != nil {
		return repOut{}, err
	}
	hits2, errs2 := w.warmCounts()

	out := recordsOut(cold, 2*len(jobs))
	out.failed += warm.Failed + errs2 - errs0
	out.cleanup = func() { os.RemoveAll(dir) }
	if hits1 != hits0 {
		out.mismatches = append(out.mismatches, fmt.Sprintf("cold pass warm-started %d cells", hits1-hits0))
	}
	if got := hits2 - hits1; got != len(jobs) {
		out.mismatches = append(out.mismatches, fmt.Sprintf("warm pass restored %d of %d cells", got, len(jobs)))
	}
	out.layers = metricSet{}
	out.layers.put("harness.warm_hit_ratio", "ratio", float64(hits2-hits1)/float64(len(jobs)))
	out.mismatches = append(out.mismatches, sameRecords("warm pass vs cold pass", cold.Records, warm.Records)...)
	return out, nil
}

func (w *warmRun) check() []string { return nil }

// probe measures what writing checkpoints costs a cold pass, and the
// snapshot and restore of the scaled TAGE-LSC predictors themselves.
func (w *warmRun) probe(m metricSet) error {
	dir := filepath.Join(w.e.dir, "warm-probe.ckpt")
	defer os.RemoveAll(dir)
	// Cold passes with and without the warm cache, in the order with,
	// without, without, with.
	var with, without float64
	for i := 0; i < 4; i++ {
		cfg := harness.Config{Parallelism: w.e.par}
		if i == 0 || i == 3 {
			os.RemoveAll(dir)
			cfg = w.config(dir)
		}
		runtime.GC()
		start := time.Now()
		if _, err := harness.RunJobs(w.jobs, cfg, harness.Discard); err != nil {
			return err
		}
		if cfg.WarmCache != "" {
			with += time.Since(start).Seconds()
		} else {
			without += time.Since(start).Seconds()
		}
	}
	m.put("checkpoint.cold_overhead_ratio", "ratio", with/without)
	return checkpointProbe(w.e, m)
}

func (w *warmRun) close() {}

package main

import (
	"fmt"
	"io"
	"runtime/debug"
	"slices"
	"time"

	"repro"
	"repro/internal/bitutil"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// why the workload exists: which layers dominate it.
	why   string
	setup func(e *env) (instance, error)
	// layers names the spans a traced rep records; the traced pass
	// reports each one's self time as self.<workload>.<layer>_s. The
	// root span, "bench", is the benchmark's own code between calls.
	layers []string
}

// instance is a set-up workload.
type instance interface {
	// rep runs the workload once. sc is nil for untraced reps; a traced
	// rep records a span around each call it makes into the program.
	rep(sc *scope) (repOut, error)
	// check runs the cross-path checks that compare against another
	// path to the same records; it runs once, after the timed reps.
	check() []string
	// probe adds the workload's per-layer metrics in the traced pass.
	probe(m metricSet) error
	close()
}

// repOut is what one rep produced.
type repOut struct {
	fingerprint string // of the rep's records or reports
	attempted   int    // cells (experiments, for paper-tables) attempted
	// failed counts failed cell records, lease expiries, transport
	// errors and warm-cache write errors.
	failed     int
	mismatches []string
	// layers are per-layer measurements the rep takes in passing.
	layers metricSet
	// cleanup, when set, removes the rep's files after its timing.
	cleanup func()
}

// The workloads, in the order they run. Each why is one line of
// BENCHMARK.json.
var workloads = []workloadDef{
	{
		name:   "tage-hot",
		why:    "reference tage x scenarios A,B x 4 traces of 250k branches: Predict/OnResolve/Retire and the in-flight ring dominate; A re-reads tables at retire, B does not",
		setup:  setupHot,
		layers: []string{"bench", "harness", "model.cell", "sink.emit"},
	},
	{
		name:   "paper-tables",
		why:    "experiments E1-E15, the reproduction's real job: composite predictors and the experiments' unpooled per-trace path dominate; the seed does not apply",
		setup:  setupTables,
		layers: []string{"bench", "experiments.run"},
	},
	{
		name:   "fig9-sweep",
		why:    "tage,tage-lsc x 8 budgets x 40 traces of 2000 branches into a fresh store, then a re-resume of the complete store: per-cell layers dominate",
		setup:  setupFig9,
		layers: []string{"bench", "store", "model.cell"},
	},
	{
		name:   "farm",
		why:    "192 generator-trace cells through a loopback coordinator and one worker: the lease wire, JSON encoding and per-lease trace regeneration dominate",
		setup:  setupFarm,
		layers: []string{"bench", "harness", "lease.http", "model.cell"},
	},
	{
		name:   "warm-restart",
		why:    "tage-lsc x 5 budgets x 8 traces of 50k branches, a cold pass writing checkpoints then a warm pass restoring them: Snapshot and Restore dominate",
		setup:  setupWarm,
		layers: []string{"bench", "harness", "model.cell", "checkpoint"},
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// Named traces of the workloads.
var (
	hotTraces  = []string{"INT01", "MM05", "SERVER01", "WS03"}
	warmTraces = []string{"CLIENT02", "INT01", "INT02", "MM05", "MM07", "WS03", "WS04", "SERVER01"}
)

// namedSpecs resolves named traces under the benchmark seed (see seeded).
func namedSpecs(names []string, seed uint64) ([]workload.Spec, error) {
	out := make([]workload.Spec, len(names))
	for i, n := range names {
		s, ok := workload.Find(n)
		if !ok {
			return nil, fmt.Errorf("unknown trace %q", n)
		}
		out[i] = s
	}
	return seeded(out, seed), nil
}

// seeded applies the benchmark seed to named traces. Seed 1 keeps each
// trace's built-in stream, so the cells match existing records; any
// other seed remixes the trace's generation seed.
func seeded(specs []workload.Spec, seed uint64) []workload.Spec {
	if seed != 1 {
		for i := range specs {
			specs[i].Seed = remix(specs[i].Seed, seed)
		}
	}
	return specs
}

// generatorSpecs spells perKind seeded specs of each H2P generator kind:
// seeds 1..perKind under benchmark seed 1, remixed ones otherwise.
func generatorSpecs(seed uint64, perKind int) []string {
	kinds := []string{"loopy:", "callret:", "datadep:", "phased:", "ctxflush:", "mix:loopy=1,callret=1,datadep=1"}
	var out []string
	for _, k := range kinds {
		for i := 1; i <= perKind; i++ {
			s := uint64(i)
			if seed != 1 {
				s = remix(s, seed)
			}
			out = append(out, fmt.Sprintf("%s#%d", k, s))
		}
	}
	return out
}

// remix derives a nonzero generation seed from v and the benchmark seed.
func remix(v, seed uint64) uint64 { return bitutil.Mix64(v^bitutil.Mix64(seed)) | 1 }

// generateAll materialises every trace once: the generation a sweep
// pays before its first cell can run.
func generateAll(specs []workload.Spec, branches int) {
	for _, s := range specs {
		workload.Generate(s, branches)
	}
}

// expand builds and expands a matrix of named models over specs.
func expand(models []string, specs []workload.Spec, scenarios string, branches int, deltas []int) ([]harness.Job, []harness.Model, error) {
	ms, err := repro.BenchModels(models)
	if err != nil {
		return nil, nil, err
	}
	scs, err := harness.ParseScenarios(scenarios)
	if err != nil {
		return nil, nil, err
	}
	m := &harness.Matrix{Models: ms, Traces: specs, Scenarios: scs, Lengths: []int{branches}, DeltaLogs: deltas}
	jobs, err := m.Expand()
	return jobs, ms, err
}

func deltaRange(lo, hi int) []int {
	var out []int
	for d := lo; d <= hi; d++ {
		out = append(out, d)
	}
	return out
}

// recordsOut summarises a harness run.
func recordsOut(sum *harness.Summary, cells int) repOut {
	return repOut{fingerprint: fingerprint(sum.Records), attempted: cells, failed: sum.Failed}
}

// tracedJobs returns jobs whose models record their runs under sc (the
// jobs themselves when sc is nil).
func tracedJobs(jobs []harness.Job, sc *scope) []harness.Job {
	if sc == nil {
		return jobs
	}
	out := slices.Clone(jobs)
	for i := range out {
		out[i].Model = tracedModel(out[i].Model, sc)
	}
	return out
}

// tracedModel records every run of m as a model.cell span, and every
// checkpoint a run hands back as a checkpoint span inside it.
func tracedModel(m harness.Model, sc *scope) harness.Model {
	if run := m.Run; run != nil {
		m.Run = tracedRun(run, sc)
	}
	if newRunner := m.NewRunner; newRunner != nil {
		m.NewRunner = func() func(*trace.Trace, sim.Options) sim.Result {
			if run := newRunner(); run != nil {
				return tracedRun(run, sc)
			}
			return nil
		}
	}
	return m
}

func tracedRun(run func(*trace.Trace, sim.Options) sim.Result, sc *scope) func(*trace.Trace, sim.Options) sim.Result {
	return func(tr *trace.Trace, opt sim.Options) sim.Result {
		id, end := sc.leaf("model.cell")
		defer end()
		if save := opt.OnCheckpoint; save != nil {
			opt.OnCheckpoint = func(blob []byte, at uint64) {
				_, end := sc.leafUnder(id, "checkpoint")
				save(blob, at)
				end()
			}
		}
		return run(tr, opt)
	}
}

// spanSink records every Emit as a sink.emit span.
type spanSink struct {
	sink harness.Sink
	sc   *scope
}

func (s spanSink) Emit(r harness.Record) error {
	_, end := s.sc.leaf("sink.emit")
	defer end()
	return s.sink.Emit(r)
}

func (s spanSink) Close() error { return s.sink.Close() }

func tracedSink(sink harness.Sink, sc *scope) harness.Sink {
	if sc == nil {
		return sink
	}
	return spanSink{sink: sink, sc: sc}
}

// metricSet collects the per-layer metrics of the traced pass.
type metricSet map[string]stat

func (m metricSet) put(name, unit string, v float64) {
	m[name] = stat{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

func (m metricSet) putSamples(name, unit string, samples []float64) {
	m[name] = newStat(samples, unit)
}

// timeRep collects garbage (as measure does), then runs one rep and
// returns it with its wall time in seconds. A traced rep runs inside a
// root span, "bench".
func timeRep(inst instance, sc *scope) (repOut, float64, error) {
	debug.FreeOSMemory()
	end := sc.open("bench")
	start := time.Now()
	out, err := inst.rep(sc)
	wall := time.Since(start).Seconds()
	end()
	if out.cleanup != nil {
		out.cleanup()
	}
	return out, wall, err
}

// --- tage-hot ---

// hotRun is one long cell per trace and scenario through RunJobs, with a
// JSONL sink writing to nowhere.
type hotRun struct {
	jobs []harness.Job
	reg  *metrics.Registry // live only while the metrics-overhead probe runs
}

func setupHot(e *env) (instance, error) {
	specs, err := namedSpecs(hotTraces, e.seed)
	if err != nil {
		return nil, err
	}
	jobs, models, err := expand([]string{"tage"}, specs, "A,B", e.sz.hot, nil)
	if err != nil {
		return nil, err
	}
	generateAll(specs, e.sz.hot)
	models[0].NewRunner()
	return &hotRun{jobs: jobs}, nil
}

func (h *hotRun) rep(sc *scope) (repOut, error) {
	jobs := tracedJobs(h.jobs, sc)
	sink := tracedSink(harness.NewJSONLSink(io.Discard), sc)
	end := sc.open("harness")
	sum, err := harness.RunJobs(jobs, harness.Config{Parallelism: 1, Metrics: h.reg}, sink)
	end()
	if err != nil {
		return repOut{}, err
	}
	return recordsOut(sum, len(jobs)), nil
}

func (h *hotRun) check() []string { return nil }

// probe measures what a live metrics registry costs: two alternating
// pairs of reps with and without one.
func (h *hotRun) probe(m metricSet) error {
	var off, on float64
	for i := 0; i < 4; i++ {
		if i == 1 || i == 2 {
			h.reg = metrics.NewRegistry()
		}
		_, wall, err := timeRep(h, nil)
		if h.reg != nil {
			on += wall
		} else {
			off += wall
		}
		h.reg = nil
		if err != nil {
			return err
		}
	}
	m.put("metrics.overhead_ratio", "ratio", on/off)
	return nil
}

func (h *hotRun) close() {}

// --- paper-tables ---

// tablesRun runs every experiment of the paper, in order.
type tablesRun struct {
	exps []experiments.Experiment
	cfg  experiments.Config
}

func setupTables(e *env) (instance, error) {
	t := &tablesRun{cfg: experiments.Config{BranchesPerTrace: e.sz.tables, Parallelism: e.par}}
	for i := 1; i <= 15; i++ {
		x, ok := experiments.Lookup(fmt.Sprintf("E%d", i))
		if !ok {
			return nil, fmt.Errorf("no experiment E%d", i)
		}
		t.exps = append(t.exps, x)
	}
	generateAll(workload.All(), e.sz.tables)
	tage.New(tage.Reference())
	return t, nil
}

func (t *tablesRun) rep(sc *scope) (repOut, error) {
	h := newHasher()
	out := repOut{layers: metricSet{}}
	for _, x := range t.exps {
		end := sc.open("experiments.run")
		start := time.Now()
		var r experiments.Report
		err := harness.Protect(func() { r = x.Run(t.cfg) })
		out.layers.put("experiments."+x.ID+"_s", "s", time.Since(start).Seconds())
		end()
		out.attempted++
		if err != nil {
			out.failed++
			out.mismatches = append(out.mismatches, fmt.Sprintf("%s: %v", x.ID, err))
			continue
		}
		hashReport(h, r)
	}
	out.fingerprint = h.sum()
	return out, nil
}

func (t *tablesRun) check() []string { return nil }

func (t *tablesRun) probe(metricSet) error { return nil }

func (t *tablesRun) close() {}

package harness

import (
	"log/slog"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config controls matrix execution.
type Config struct {
	// Parallelism bounds concurrent jobs (default: NumCPU).
	Parallelism int
	// NoTraceCache disables sharing of generated traces between jobs.
	// By default a trace is synthesised once per (benchmark, length) and
	// reused across every model and scenario touching it — the dominant
	// saving in wide matrices — at the cost of holding it in memory from
	// its first pass to its last. Regenerating still saves memory where a
	// trace's passes are far apart: in a multi-model matrix every trace
	// stays cached until the last model's pass over it.
	NoTraceCache bool
	// NoAggregates suppresses the category/hard/suite rollup records.
	NoAggregates bool
	// Provenance, when non-nil, is stamped onto every record the run
	// produces (cells and aggregates alike), so an appended store line
	// always says which code wrote it. Callers that persist records
	// should pass CurrentProvenance; nil leaves records unstamped (the
	// pre-provenance behaviour, and what deterministic in-memory tests
	// want).
	Provenance *Provenance
	// Metrics, when non-nil, receives the run's operational telemetry:
	// job counts and latencies, per-worker in-flight gauges, trace-cache
	// hits, cell progress, records per kind, branches retired and the
	// derived branches/sec (see the Metric* constants and the sim
	// package's families). Nil is a zero-overhead no-op — the hot path
	// and result stream are bit-identical with telemetry off, which is
	// why the registry is injected here rather than being a global.
	Metrics *metrics.Registry
	// WarmCache, when non-empty, names a checkpoint blob directory
	// (conventionally WarmCacheDir(storePath), i.e. "store.jsonl.ckpt/").
	// Each cell then warm-starts from its cached predictor+pipeline
	// snapshot when one matches — skipping the already-simulated prefix —
	// and saves checkpoints (periodic plus end-of-trace) as it runs, so a
	// repeated sweep skips warm-up entirely and an interrupted long cell
	// resumes mid-trace on the next run. Results are byte-identical to a
	// cold run modulo wall-clock telemetry; any unusable blob silently
	// falls back to a cold start (the cache is never a correctness
	// dependency). Empty disables checkpointing.
	WarmCache string
	// CheckpointEvery is the periodic checkpoint interval in branches
	// when WarmCache is set (zero selects DefaultCheckpointEvery).
	CheckpointEvery uint64
	// Scheduler, when non-nil, executes the expanded jobs in place of
	// the in-process worker pool — the seam the distributed sweep
	// service plugs into (see LeaseScheduler). Nil selects the local
	// pool; every current caller is unchanged.
	Scheduler Scheduler
	// Log, when non-nil, receives operational diagnostics the harness
	// would otherwise swallow (warm-cache write failures, lease-protocol
	// chatter) at slog levels: Debug for -v detail, Warn for conditions
	// worth surfacing. Nil keeps the harness silent, as before.
	Log *slog.Logger
}

// DefaultCheckpointEvery is the periodic checkpoint interval (in
// branches) used when Config.WarmCache is set without an explicit
// Config.CheckpointEvery.
const DefaultCheckpointEvery = 1_000_000

func (c Config) checkpointEvery() uint64 {
	if c.CheckpointEvery > 0 {
		return c.CheckpointEvery
	}
	return DefaultCheckpointEvery
}

func (c Config) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.NumCPU()
}

// Summary is the outcome of a matrix run.
type Summary struct {
	// Jobs counts the cells of the expanded grid; on a resume run,
	// Jobs-Skipped of them were actually executed.
	Jobs int
	// Skipped counts cells reused from a prior result store instead of
	// re-run (always 0 for a fresh run).
	Skipped int
	Failed  int
	Records []Record // every record emitted, in emission order
	// Merged is the run's complete cell set in expansion order — fresh
	// records plus, on a resume, the reused ones with their preserved
	// telemetry — regardless of what was emitted. It is what a
	// resume-aware perf table renders: PerfRows(sum.Merged) covers every
	// cell of the grid even when the store was already complete and the
	// run appended nothing.
	Merged []Record
}

// traceCache memoises workload generation per (benchmark, length) for
// one run's passes. Each entry counts the passes that read its trace, is
// built at most once even under concurrent demand, and is dropped once
// the last of those passes finishes, so a trace is held from its first
// pass to its last. The hit and miss counters are nil-safe no-ops when
// telemetry is off; a "miss" is the lookup that generates the trace,
// every other lookup is a hit even if it briefly waits on the builder.
type traceCache struct {
	mu sync.Mutex
	m  map[traceKey]*traceEntry
	// hash makes each entry carry its trace's content hash, which the
	// warm cache keys checkpoints by.
	hash         bool
	hits, misses *metrics.Counter
}

// traceKey identifies a cached trace: one benchmark at one length.
type traceKey struct {
	name     string
	branches int
}

type traceEntry struct {
	once   sync.Once
	tr     *trace.Trace
	hash   uint64
	passes int // passes not yet finished reading the entry; guarded by the cache's mu
}

func jobTrace(j Job) traceKey { return traceKey{j.Spec.Name, j.Branches} }

// expect counts one more pass that reads j's trace.
func (c *traceCache) expect(j Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := jobTrace(j)
	e := c.m[k]
	if e == nil {
		e = &traceEntry{}
		c.m[k] = e
	}
	e.passes++
}

// get returns j's trace, and its content hash when the cache hashes,
// generating both on the entry's first lookup.
func (c *traceCache) get(j Job) (*trace.Trace, uint64) {
	c.mu.Lock()
	e := c.m[jobTrace(j)]
	c.mu.Unlock()
	built := false
	e.once.Do(func() {
		built = true
		e.tr = workload.Generate(j.Spec, j.Branches)
		if c.hash {
			e.hash = e.tr.Hash()
		}
	})
	if built {
		c.misses.Inc()
	} else {
		c.hits.Inc()
	}
	return e.tr, e.hash
}

// done counts off a finished pass that read j's trace, or failed before
// it could, and drops the entry after its last pass.
func (c *traceCache) done(j Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := jobTrace(j)
	e := c.m[k]
	e.passes--
	if e.passes == 0 {
		delete(c.m, k)
	}
}

// Run expands the matrix and executes every job on the worker pool,
// streaming records to sink in deterministic order: cells in expansion
// order (a reorder buffer decouples worker completion order from
// emission order, so output starts as soon as the first cell finishes),
// then aggregates grouped per (model, scenario, length). A job that
// panics yields a Record with Err set and does not abort the run.
func Run(m *Matrix, cfg Config, sink Sink) (*Summary, error) {
	jobs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	return RunJobs(jobs, cfg, sink)
}

// RunJobs executes an already-expanded job list (see Matrix.Expand): a
// fresh run is a resume plan with nothing reused.
func RunJobs(jobs []Job, cfg Config, sink Sink) (*Summary, error) {
	return RunResume(&ResumePlan{Jobs: jobs, Todo: jobs}, cfg, sink)
}

// runnerArena holds one worker's pooled run functions, keyed by the
// model's canonical spec (name when the model was built without one),
// and its warm-cache buffers. It is only ever touched from the goroutine
// that owns it, so lookups are lock-free; the hit/miss counters feed the
// pool's telemetry.
type runnerArena struct {
	m            map[string]func(tr *trace.Trace, opt sim.Options) sim.Result
	hits, misses *metrics.Counter
	// frame holds the last frame warmCache.load read, and hdr builds the
	// header of each frame the worker saves; both keep their capacity
	// across cells and, in RunWorker's pool, across leases.
	frame []byte
	hdr   checkpoint.Encoder
}

// modelKey is the key a model's runner is pooled under.
func modelKey(mdl Model) string {
	if mdl.Spec != "" {
		return mdl.Spec
	}
	return mdl.Name
}

// runner resolves the run function for a job's model: the pooled runner
// when the model offers one (created on first use, Reset-reused after),
// the plain cold-construction Run otherwise.
func (a *runnerArena) runner(mdl Model) func(tr *trace.Trace, opt sim.Options) sim.Result {
	if mdl.NewRunner == nil {
		return mdl.Run
	}
	key := modelKey(mdl)
	if fn, ok := a.m[key]; ok {
		a.hits.Inc()
		return fn
	}
	a.misses.Inc()
	fn := mdl.NewRunner()
	if fn == nil {
		fn = mdl.Run
	}
	a.m[key] = fn
	return fn
}

// runnerPool holds one runner arena per worker goroutine, and counts the
// passes each model of the current executeJobs call still has queued, so
// a worker drops a runner once no queued pass can need it. A pool that
// outlives one call — RunWorker keeps one across its leases — lets later
// calls reuse the warmed predictor each worker ran last.
type runnerPool struct {
	arenas []*runnerArena
	mu     sync.Mutex
	queued map[string]int // passes not yet started, per model key
}

// prepare readies arenas for workers goroutines metered by rm to run
// passes of jobs: it counts each model's passes and drops every pooled
// runner of a model with none.
func (p *runnerPool) prepare(workers int, jobs []Job, passes [][]int, rm *runMetrics) {
	p.queued = make(map[string]int)
	for _, pass := range passes {
		p.queued[modelKey(jobs[pass[0]].Model)]++
	}
	for len(p.arenas) < workers {
		p.arenas = append(p.arenas, &runnerArena{m: make(map[string]func(tr *trace.Trace, opt sim.Options) sim.Result)})
	}
	for _, a := range p.arenas {
		p.release(a, "")
		a.hits, a.misses = nil, nil
		if rm != nil {
			a.hits, a.misses = rm.poolHits, rm.poolMisses
		}
	}
}

// queue counts one more queued pass of model key.
func (p *runnerPool) queue(key string) {
	p.mu.Lock()
	p.queued[key]++
	p.mu.Unlock()
}

// start counts a pass of model key off the queue as worker arena a
// starts it, and drops a's runners that no queued pass needs.
func (p *runnerPool) start(a *runnerArena, key string) {
	p.mu.Lock()
	p.queued[key]--
	p.mu.Unlock()
	p.release(a, key)
}

// release drops every runner in a, except keep's, whose model has no
// pass queued: its tables, sibling cores and simulation buffers.
func (p *runnerPool) release(a *runnerArena, keep string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key := range a.m {
		if key != keep && p.queued[key] == 0 {
			delete(a.m, key)
		}
	}
}

// passKey identifies the jobs one pass can simulate together: one
// model over one trace at one length and pipeline, in any scenarios.
type passKey struct {
	model, trace      string
	branches          int
	window, execDelay int
	penalty           float64
}

// planPasses groups the jobs into passes, each a list of job indices in
// job order. With fuse unset, for jobs that all run one scenario
// (nothing to fuse), or for a job that warm-starts or checkpoints, every
// job is a pass of its own. A pass runs on one goroutine, so fusing must
// not leave any of the workers idle: while there are fewer passes than
// workers, the largest pass splits in two.
func planPasses(jobs []Job, fuse bool, workers int) [][]int {
	fuse = fuse && slices.ContainsFunc(jobs, func(j Job) bool { return j.Scenario != jobs[0].Scenario })
	passes := make([][]int, 0, len(jobs))
	at := make(map[passKey]int)
	for i, j := range jobs {
		if o := j.Opts; fuse && o.Resume == nil && o.OnCheckpoint == nil && len(o.Also) == 0 {
			k := passKey{modelKey(j.Model), j.Spec.Name, j.Branches, o.Window, o.ExecDelay, o.PenaltyBase}
			if p, ok := at[k]; ok {
				passes[p] = append(passes[p], i)
				continue
			}
			at[k] = len(passes)
		}
		passes = append(passes, []int{i})
	}
	for 0 < len(passes) && len(passes) < workers {
		big := 0
		for i, p := range passes {
			if len(p) > len(passes[big]) {
				big = i
			}
		}
		p := passes[big]
		if len(p) < 2 {
			break
		}
		half := len(p) / 2
		passes[big] = p[:half:half]
		passes = slices.Insert(passes, big+1, p[half:])
	}
	return passes
}

// executeJobs runs the job list on cfg.workers() goroutines, invoking
// visit for every record in job order as results complete (a reorder
// buffer decouples worker completion order from visit order, so
// streaming starts with the first finished cell), and returns all
// records. Unless a warm cache is set, the jobs that share a model,
// trace, length and pipeline run as one pass over the trace
// (Options.Also; see planPasses), so a model whose predictor shares its
// front end across scenarios computes it once; a panic fails every cell
// of its pass. A model whose run function returns short shares
// nothing: the rest of that pass runs singly, and its later passes go
// back to the queue as single cells, so they spread over the workers as
// unfused cells do. Each worker keeps its own runner arena in pool (a
// fresh pool when nil), so its repeated cells of a model Reset one
// pooled predictor; every trace still starts from cold state, so the
// records are byte-identical at any parallelism.
//
// A pooled runner and a cached trace are held only while a queued pass
// needs them: a worker starting a pass drops its runners of models with
// no pass queued, the trace cache drops a trace after the last pass that
// reads it, and each worker returns holding only the runner of the model
// it ran last.
func executeJobs(jobs []Job, cfg Config, rm *runMetrics, pool *runnerPool, visit func(Record)) []Record {
	wc := newWarmCache(cfg.WarmCache, rm, cfg.Log)
	passes := planPasses(jobs, wc == nil, cfg.workers())
	var cache *traceCache
	if !cfg.NoTraceCache {
		cache = &traceCache{m: make(map[traceKey]*traceEntry), hash: wc != nil}
		for _, p := range passes {
			cache.expect(jobs[p[0]])
		}
	}
	if rm != nil {
		if cache != nil {
			cache.hits, cache.misses = rm.cacheHits, rm.cacheMisses
		}
		rm.poolStart = time.Now()
	}
	results := make([]Record, len(jobs))
	done := make([]chan struct{}, len(jobs))
	for i := range jobs {
		done[i] = make(chan struct{})
	}
	// The queue holds at most one entry per job not yet started, so a
	// worker that splits a pass never blocks on it. It closes once every
	// job is done.
	next := make(chan []int, len(jobs))
	for _, p := range passes {
		next <- p
	}
	// solo holds the keys of the models whose run function returned
	// short.
	var solo sync.Map

	// runPass simulates the jobs of one pass into results.
	runPass := func(pass []int, w int, arena *runnerArena) {
		jobDone := make([]func(failed bool), len(pass))
		for k := range pass {
			jobDone[k] = rm.jobBegin(w)
		}
		lead := jobs[pass[0]]
		err := Protect(func() {
			run := arena.runner(lead.Model)
			var tr *trace.Trace
			var hash uint64
			if cache != nil {
				tr, hash = cache.get(lead)
				// The pass's other cells read the same entry.
				cache.hits.Add(uint64(len(pass) - 1))
			} else {
				tr = workload.Generate(lead.Spec, lead.Branches)
				if wc != nil {
					hash = tr.Hash()
				}
			}
			opt := lead.Opts
			opt.Metrics = cfg.Metrics
			if wc != nil {
				key := wc.key(lead, hash)
				opt.Resume = wc.load(key, &arena.frame)
				opt.CheckpointEvery = cfg.checkpointEvery()
				opt.OnCheckpoint = func(blob []byte, at uint64) { wc.save(key, blob, at, &arena.hdr) }
			}
			for _, i := range pass[1:] {
				opt.Also = append(opt.Also, jobs[i].Scenario)
			}
			r := run(tr, opt)
			if wc != nil {
				// A hit is a warm start that actually took: a blob the sim
				// refused (stale geometry, mismatched pipeline) cold-starts
				// and counts as a miss, so the hit metric certifies reuse.
				if opt.Resume != nil && r.ResumeErr == nil {
					wc.hits.Inc()
				} else {
					wc.misses.Inc()
				}
			}
			results[pass[0]] = cellRecord(lead, r)
			for k, i := range pass[1:] {
				if k < len(r.Also) {
					results[i] = cellRecord(jobs[i], r.Also[k])
					continue
				}
				// The run function returned short (a predictor that cannot
				// share a pass returns no Also results): run the rest singly.
				solo.Store(modelKey(lead.Model), true)
				one := jobs[i].Opts
				one.Metrics = cfg.Metrics
				results[i] = cellRecord(jobs[i], run(tr, one))
			}
		})
		if cache != nil {
			cache.done(lead)
		}
		for k, i := range pass {
			if err != nil {
				results[i] = failedRecord(jobs[i], err)
			}
			if cfg.Provenance != nil {
				results[i].Provenance = cfg.Provenance
			}
			jobDone[k](results[i].Failed())
		}
	}

	if pool == nil {
		pool = &runnerPool{}
	}
	workers := min(cfg.workers(), len(passes))
	pool.prepare(workers, jobs, passes, rm)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arena := pool.arenas[w]
			var last string
			for pass := range next {
				last = modelKey(jobs[pass[0]].Model)
				if _, ok := solo.Load(last); ok && len(pass) > 1 {
					// Count each single before queueing it, so no worker
					// sees its model or trace run out of passes meanwhile.
					for _, i := range pass[1:] {
						pool.queue(last)
						if cache != nil {
							cache.expect(jobs[i])
						}
						next <- []int{i}
					}
					pass = pass[:1]
				}
				pool.start(arena, last)
				runPass(pass, w, arena)
				for _, i := range pass {
					close(done[i])
				}
			}
			// No pass is queued any more: keep only the last model's runner.
			pool.release(arena, last)
		}(w)
	}
	for i := range jobs {
		<-done[i]
		visit(results[i])
	}
	close(next)
	wg.Wait()
	return results
}

// emitter wraps a sink for the run loops: a sink failure mid-stream must
// not strand the worker pool or skip Close, so emit stops forwarding on
// the first error (returned via the pointer) while callers keep
// draining.
func emitter(sum *Summary, sink Sink, rm *runMetrics) (emit func(Record), emitErr *error) {
	var err error
	return func(r Record) {
		if err != nil {
			return
		}
		rm.recordEmitted(r)
		sum.Records = append(sum.Records, r)
		err = sink.Emit(r)
	}, &err
}

// closeSink closes the sink, preferring an earlier emit error.
func closeSink(sink Sink, emitErr error) error {
	if closeErr := sink.Close(); emitErr == nil {
		return closeErr
	}
	return emitErr
}

// groupKey identifies one (model, scenario, length) aggregation group.
type groupKey struct {
	model    string
	scenario string
	branches int
}

type accum struct {
	mpki, mppki float64
	mispredicts uint64
	simBranches uint64
	elapsed     float64
	cells       int
	// deltaLog, storageBits and spec are constant across a group's cells
	// (the canonical model name is part of the group identity); the first
	// cell stamps them so budget-sweep aggregates stay plottable on their
	// own and aggregates say which configuration they roll up.
	deltaLog    int
	storageBits int
	spec        string
}

func (a *accum) add(r Record) {
	if a.cells == 0 {
		a.deltaLog = r.DeltaLog
		a.storageBits = r.StorageBits
		a.spec = r.Spec
	}
	a.mpki += r.MPKI
	a.mppki += r.MPPKI
	a.mispredicts += r.Mispredicts
	a.simBranches += r.SimBranches
	a.elapsed += r.ElapsedSec
	a.cells++
}

func (a *accum) record(kind string, g groupKey, category string) Record {
	r := Record{
		Kind:        kind,
		Model:       g.model,
		Spec:        a.spec,
		Category:    category,
		Scenario:    g.scenario,
		Branches:    g.branches,
		DeltaLog:    a.deltaLog,
		StorageBits: a.storageBits,
		MPKISum:     a.mpki,
		MPPKISum:    a.mppki,
		Mispredicts: a.mispredicts,
		SimBranches: a.simBranches,
		ElapsedSec:  a.elapsed,
		Cells:       a.cells,
	}
	if a.cells > 0 {
		r.MPKI = a.mpki / float64(a.cells)
		r.MPPKI = a.mppki / float64(a.cells)
	}
	if a.elapsed > 0 {
		// Group throughput: total branches over total simulation time.
		r.BranchesPerSec = float64(a.simBranches) / a.elapsed
	}
	return r
}

// Aggregate rolls successful cell records up into per-category, hard-7
// and suite aggregates within each (model, scenario, length) group,
// in a deterministic order: groups in first-appearance order, categories
// sorted, then hard subset, then suite. Failed cells are excluded from
// the rollup (their absence is visible via Cells).
func Aggregate(cells []Record) []Record {
	var order []groupKey
	suites := make(map[groupKey]*accum)
	hards := make(map[groupKey]*accum)
	cats := make(map[groupKey]map[string]*accum)
	hardNames := workload.HardNames

	for _, r := range cells {
		if r.Kind != KindCell && r.Kind != "" {
			continue
		}
		if r.Failed() {
			continue
		}
		g := groupKey{model: r.Model, scenario: r.Scenario, branches: r.Branches}
		if _, ok := suites[g]; !ok {
			order = append(order, g)
			suites[g] = &accum{}
			hards[g] = &accum{}
			cats[g] = make(map[string]*accum)
		}
		suites[g].add(r)
		if hardNames[r.Trace] {
			hards[g].add(r)
		}
		c := cats[g][r.Category]
		if c == nil {
			c = &accum{}
			cats[g][r.Category] = c
		}
		c.add(r)
	}

	var out []Record
	for _, g := range order {
		catNames := make([]string, 0, len(cats[g]))
		for name := range cats[g] {
			catNames = append(catNames, name)
		}
		sort.Strings(catNames)
		for _, name := range catNames {
			out = append(out, cats[g][name].record(KindCategory, g, name))
		}
		if hards[g].cells > 0 {
			out = append(out, hards[g].record(KindHard, g, ""))
		}
		out = append(out, suites[g].record(KindSuite, g, ""))
	}
	return out
}

// Package sim is the trace-driven pipeline simulator reproducing the
// CBP-3-style evaluation framework of Section 2: branches are predicted at
// fetch, resolved at execute, and the predictor tables are updated at
// retire time, with the four update-timing scenarii of Section 4.1.2
// ([I] oracle, [A] re-read at retire, [B] fetch-read only, [C] re-read on
// mispredictions only).
//
// The pipeline model is branch-granular: an in-flight window of up to
// Window branches separates fetch from retire, and a misprediction drains
// the pipeline (the refetched path reaches the predictor only after older
// branches have largely retired), shrinking the effective update delay to
// ExecDelay for the branches in flight at the misprediction.
package sim

import (
	"fmt"
	"time"

	"repro/internal/bitutil"
	"repro/internal/memarray"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// Simulator-owned telemetry families (registered on Options.Metrics when
// set). They live here, not in the harness, because the simulator is the
// layer that retires branches; the harness derives its branches/sec
// gauge from the same counter, so the names are shared constants.
const (
	// MetricBranchesRetired counts branches simulated (retired), summed
	// across every cell touching the registry. Advanced once per decode
	// batch, so a live scrape sees progress inside a long cell while the
	// per-branch hot path stays allocation- and atomic-free.
	MetricBranchesRetired = "bpbench_branches_retired_total"
	// HelpBranchesRetired is the family's help text (exported so the
	// harness registers the identical family when deriving rates).
	HelpBranchesRetired = "Branches simulated (retired), across all cells."
	// MetricPipelineFlushes counts misprediction-triggered pipeline
	// drains, by update scenario (flushed once per run).
	MetricPipelineFlushes = "bpbench_pipeline_flushes_total"
)

// Options configures one simulation run.
type Options struct {
	// Scenario selects the update-timing policy (default ScenarioA).
	Scenario predictor.Scenario
	// Window is the maximum number of in-flight branches between fetch and
	// retire (default 24; roughly a 192-µop ROB at 8 µops/branch).
	Window int
	// ExecDelay is the fetch-to-execute distance in branches: how long the
	// outcome of a branch stays unknown to younger fetches (default 6).
	// It also bounds the post-misprediction drain latency.
	ExecDelay int
	// PenaltyBase is the misprediction penalty in cycles used by the MPPKI
	// metric (default 20). The paper notes MPPKI is globally proportional
	// to the misprediction count; we keep the penalty model simple.
	PenaltyBase float64
	// Metrics, when non-nil, receives simulator telemetry: branches
	// retired (advanced per decode batch, so live progress is visible
	// inside a long trace) and per-scenario pipeline flush counts. Nil
	// keeps the run telemetry-free with zero hot-path overhead.
	Metrics *metrics.Registry

	// Resume, when non-nil, warm-starts the run from a Checkpoint taken
	// by an earlier run of the identical (predictor configuration,
	// trace, pipeline options) cell: the predictor state and in-flight
	// window are restored and the first Resume.At branches of the
	// source are skipped. A blob that fails to decode or describes a
	// different configuration falls back to a cold start (the predictor
	// is Reset); Result.ResumeErr reports why.
	Resume *Checkpoint
	// OnCheckpoint, when non-nil, receives a checkpoint blob at the end
	// of the trace (always) and, when CheckpointEvery > 0, every
	// CheckpointEvery branches along the way (taken between decode
	// batches, so the granularity is the batch size). The callback must
	// not retain the predictor; the blob is self-contained.
	OnCheckpoint func(blob []byte, at uint64)
	// CheckpointEvery is the approximate branch interval between
	// periodic OnCheckpoint emissions (0 = only the end-of-trace blob).
	CheckpointEvery uint64
}

// Default pipeline parameters, applied when Options leaves the fields
// non-positive. Exported so layers that compare stored results against
// requested configurations (the harness resume store) can resolve a
// zero to the value a run would actually use.
const (
	DefaultWindow    = 24
	DefaultExecDelay = 6
)

func (o Options) withDefaults() Options {
	// Non-positive values select the defaults: a negative window would
	// corrupt the retire ring, and a negative delay or penalty has no
	// physical meaning. The harness layer rejects negative values before
	// they reach here (harness.Matrix.Expand and the bpbench flags), so
	// the two layers agree: zero means default, negative is an error at
	// the declarative boundary and a default here.
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.ExecDelay <= 0 {
		o.ExecDelay = DefaultExecDelay
	}
	if o.PenaltyBase <= 0 {
		o.PenaltyBase = 20
	}
	return o
}

// Result reports the outcome of simulating one trace.
type Result struct {
	Trace         string
	Category      string
	Predictor     string
	Scenario      predictor.Scenario
	Branches      uint64
	MicroOps      uint64
	Mispredicts   uint64
	MPKI          float64 // mispredictions per kilo-µop
	MPPKI         float64 // misprediction penalty per kilo-µop
	Access        memarray.Stats
	Misprediction float64 // misprediction rate per branch
	// Window and ExecDelay record the pipeline configuration the run
	// actually used (after defaulting): provenance for stored results,
	// so two runs are never compared across different pipeline models
	// without noticing.
	Window    int
	ExecDelay int
	// Elapsed is the wall-clock time the simulation took and
	// BranchesPerSec the simulator throughput derived from it: telemetry
	// for tracking the speed of the simulator itself (never an input to
	// accuracy metrics, and ignored by baseline diffing).
	Elapsed        time.Duration
	BranchesPerSec float64
	// ResumedAt is the branch index a warm start resumed from (0 for a
	// cold run); ResumeErr is the reason a requested warm start fell
	// back to a cold run, if it did. Both are telemetry: accuracy
	// results of a resumed run are byte-identical to a cold run.
	ResumedAt uint64
	ResumeErr error
}

func (r Result) String() string {
	return fmt.Sprintf("%-10s %-8s %s MPKI=%6.3f MPPKI=%7.2f mr=%5.2f%%",
		r.Trace, r.Predictor, r.Scenario, r.MPKI, r.MPPKI, 100*r.Misprediction)
}

type inflight[C any] struct {
	pc      uint64
	taken   bool
	mispred bool
	ctx     C
}

// decodeBatch is the trace-decode block size: branches are pulled from
// Batcher sources in blocks of this many so the per-branch interface
// call amortises away. 256 branches is 4KB of decode buffer — well
// within L1.
const decodeBatch = 256

// Runner is a reusable simulation engine for one context type C. It owns
// the in-flight ring, the retire-time array and the resolved telemetry
// handles, so a pool re-running cells of the same shape performs zero
// allocations after the first run. The zero value is ready to use; a
// Runner must not be shared between concurrent runs.
type Runner[C any] struct {
	ring     []inflight[C]
	retireAt []uint64
	// Telemetry handles resolve against one registry and are reused while
	// Options.Metrics keeps pointing at it.
	reg        *metrics.Registry
	retiredCtr *metrics.Counter
	flushVec   *metrics.CounterVec
	// cursor is the reusable trace source handed to Run by RunTrace, so a
	// pooled run performs no per-run Reader allocation.
	cursor trace.Cursor
	// batch is the decode buffer. It lives on the Runner because passing
	// it through the Batcher interface makes it escape: as a local it
	// would cost one heap allocation per run.
	batch [decodeBatch]trace.Branch
}

// Run simulates predictor p over the branches of src, reusing the
// Runner's buffers. The predictor must be freshly constructed or Reset.
//
// The loop is allocation-free in steady state: the in-flight ring is
// sized to a power of two (head/tail advance by masking), the scenario
// dispatch is hoisted out of the retire path, and branches are decoded
// in blocks when the source supports it.
func (rn *Runner[C]) Run(p predictor.Predictor[C], name, category string, src trace.Source, opt Options) Result {
	opt = opt.withDefaults()
	stats := p.AccessStats()

	window := opt.Window
	if opt.Scenario == predictor.ScenarioI {
		window = 0
	}
	// The ring needs room for window+1 in-flight branches plus the slot
	// being inserted; rounding up to a power of two lets the hot path
	// advance head and tail with a mask instead of %. The forced-retire
	// threshold stays window+1 regardless of the rounded ring size.
	ringSize := bitutil.CeilPow2(window + 2)
	ringMask := ringSize - 1
	if len(rn.ring) < ringSize {
		rn.ring = make([]inflight[C], ringSize)
		// Retire times live in their own small array so the
		// post-misprediction drain walks a few cache lines instead of
		// striding over the full (context-carrying) ring entries.
		rn.retireAt = make([]uint64, ringSize)
	} else {
		// Reused buffers must start zeroed: a fresh run sees zero-valued
		// contexts, and byte-identical reuse requires the same here (a
		// predictor's Predict is not obliged to overwrite every field).
		clear(rn.ring[:ringSize])
		clear(rn.retireAt[:ringSize])
	}
	ring := rn.ring[:ringSize]
	retireAt := rn.retireAt[:ringSize]
	head, tail := 0, 0 // head = oldest, tail = next insert slot
	count := 0

	// Scenario dispatch, hoisted out of the per-retire path.
	rereadAlways := opt.Scenario == predictor.ScenarioI || opt.Scenario == predictor.ScenarioA
	rereadOnMiss := opt.Scenario == predictor.ScenarioC
	countRereads := opt.Scenario != predictor.ScenarioI

	// Simulator-owned access counters accumulate in locals and flush into
	// the shared stats struct once, after the loop (the predictor's own
	// write accounting still updates stats in place).
	var (
		seq          uint64
		branches     uint64
		microOps     uint64
		mispreds     uint64
		penaltySum   float64
		retireReads  uint64
		writeEvents  uint64
		retiredCount uint64
	)

	// Warm start: restore predictor state and the in-flight window from
	// a checkpoint, then skip the already-simulated trace prefix. A bad
	// blob degrades to a cold start — the warm cache is an optimization,
	// never a correctness dependency.
	var resumedAt uint64
	var resumeErr error
	var restoredMispreds uint64
	if opt.Resume != nil && len(opt.Resume.Blob) > 0 {
		st, err := rn.decodeCheckpoint(p, opt, window, ring, retireAt, opt.Resume.Blob)
		if err == nil {
			// A blob claiming a longer already-simulated prefix than the
			// source holds cannot be a checkpoint of this cell; refuse it
			// before consuming the source so the cold fallback sees the
			// whole trace. Sources without a known length skip the check.
			if lener, ok := src.(interface{ Len() int }); ok && st.branches > uint64(lener.Len()) {
				err = fmt.Errorf("sim: checkpoint taken after %d branches, but this source holds only %d", st.branches, lener.Len())
			}
		}
		if err == nil {
			seq, branches, microOps, mispreds = st.seq, st.branches, st.microOps, st.mispreds
			penaltySum = st.penaltySum
			retireReads, writeEvents, retiredCount = st.retireReads, st.writeEvents, st.retiredCount
			head, tail, count = 0, st.count&ringMask, st.count
			restoredMispreds = mispreds
			resumedAt = skipPrefix(src, branches, rn.batch[:])
		} else {
			resumeErr = err
			p.Reset()
			clear(ring)
			clear(retireAt)
		}
	}

	retireOne := func() {
		e := &ring[head]
		reread := rereadAlways || (rereadOnMiss && e.mispred)
		if reread && countRereads {
			retireReads++
		}
		writesBefore := stats.EntryWrites
		p.Retire(e.pc, e.taken, &e.ctx, reread)
		if stats.EntryWrites != writesBefore {
			writeEvents++
		}
		retiredCount++
		head = (head + 1) & ringMask
		count--
	}

	// Telemetry handles resolve once per registry (cached across runs on
	// the Runner); the counter is advanced per decode batch (one nil check
	// and one atomic add per 256 branches), so a live /metrics scrape sees
	// progress inside a long cell without the per-branch path ever
	// touching the registry.
	if opt.Metrics != rn.reg {
		rn.reg = opt.Metrics
		rn.retiredCtr, rn.flushVec = nil, nil
		if opt.Metrics != nil {
			rn.retiredCtr = opt.Metrics.Counter(MetricBranchesRetired, HelpBranchesRetired)
			rn.flushVec = opt.Metrics.CounterVec(MetricPipelineFlushes,
				"Misprediction-triggered pipeline flushes, by update scenario.",
				"scenario")
		}
	}
	retiredCtr := rn.retiredCtr

	// Periodic checkpoints fire between decode batches once branches
	// crosses nextCk (anchored past any restored prefix).
	var nextCk uint64
	if opt.OnCheckpoint != nil && opt.CheckpointEvery > 0 {
		nextCk = branches + opt.CheckpointEvery
	}
	emitCheckpoint := func() {
		st := simState{
			seq: seq, branches: branches, microOps: microOps, mispreds: mispreds,
			penaltySum: penaltySum, retireReads: retireReads,
			writeEvents: writeEvents, retiredCount: retiredCount, count: count,
		}
		if blob, err := rn.encodeCheckpoint(p, opt, window, ring, retireAt, head, ringMask, st); err == nil {
			opt.OnCheckpoint(blob, branches)
		}
	}

	start := time.Now()
	batcher, _ := src.(trace.Batcher)
	batch := rn.batch[:]
	for {
		n := 0
		if batcher != nil {
			n = batcher.NextBatch(batch[:])
		} else if b, ok := src.Next(); ok {
			batch[0] = b
			n = 1
		}
		if n == 0 {
			break
		}
		retiredCtr.Add(uint64(n))
		for _, b := range batch[:n] {
			// Retire branches whose time has come (in order).
			for count > 0 && retireAt[head] <= seq {
				retireOne()
			}
			// The ring must keep room for the incoming branch.
			if count > window {
				retireOne()
			}

			tail0 := tail
			e := &ring[tail0]
			tail = (tail0 + 1) & ringMask
			count++

			e.pc = b.PC
			e.taken = b.Taken
			pred := p.Predict(b.PC, &e.ctx)
			e.mispred = pred != b.Taken

			branches++
			microOps += uint64(b.OpsBefore) + 1

			p.OnResolve(b.PC, b.Taken, e.mispred, &e.ctx)

			retireAt[tail0] = seq + uint64(window)
			if e.mispred {
				mispreds++
				penaltySum += opt.PenaltyBase
				// Pipeline drain: everything in flight (including this
				// branch) retires within ExecDelay fetch slots of the
				// resolution.
				drainAt := seq + uint64(opt.ExecDelay)
				for i, left := head, count; left > 0; i, left = (i+1)&ringMask, left-1 {
					if retireAt[i] > drainAt {
						retireAt[i] = drainAt
					}
				}
			}
			seq++
		}
		if nextCk > 0 && branches >= nextCk {
			emitCheckpoint()
			for nextCk <= branches {
				nextCk += opt.CheckpointEvery
			}
		}
	}
	// Drain the pipeline at trace end.
	for count > 0 {
		retireOne()
	}
	// The end-of-trace checkpoint is taken after the drain and before
	// the stats flush: restoring it and "continuing" over zero branches
	// reproduces the final counters exactly.
	if opt.OnCheckpoint != nil {
		emitCheckpoint()
	}
	elapsed := time.Since(start)

	stats.PredictReads += branches
	stats.Mispredictions += mispreds
	stats.RetireReads += retireReads
	stats.WriteEvents += writeEvents
	stats.RetiredBranch += retiredCount

	if rn.flushVec != nil {
		// Each misprediction drains the in-flight window — a pipeline
		// flush. Accumulated locally, flushed once per run; a warm start
		// adds only what this run simulated (the restored prefix was
		// accounted by the run that took the checkpoint).
		rn.flushVec.With(opt.Scenario.Letter()).Add(mispreds - restoredMispreds)
	}

	res := Result{
		Trace:       name,
		Category:    category,
		Predictor:   p.Name(),
		Scenario:    opt.Scenario,
		Branches:    branches,
		MicroOps:    microOps,
		Mispredicts: mispreds,
		Access:      *stats,
		Window:      window,
		ExecDelay:   opt.ExecDelay,
		Elapsed:     elapsed,
		ResumedAt:   resumedAt,
		ResumeErr:   resumeErr,
	}
	if secs := elapsed.Seconds(); secs > 0 && branches > 0 {
		res.BranchesPerSec = float64(branches) / secs
	}
	if microOps > 0 {
		kilo := float64(microOps) / 1000
		res.MPKI = float64(mispreds) / kilo
		res.MPPKI = penaltySum / kilo
	}
	if branches > 0 {
		res.Misprediction = float64(mispreds) / float64(branches)
	}
	return res
}

// RunTrace reuses the Runner's buffers over a materialised trace.
func (rn *Runner[C]) RunTrace(p predictor.Predictor[C], tr *trace.Trace, opt Options) Result {
	rn.cursor.Seek(tr)
	res := rn.Run(p, tr.Name, tr.Category, &rn.cursor, opt)
	rn.cursor.Seek(nil)
	return res
}

// Pooled returns a run function that simulates p on one reusable Runner,
// Resetting p before every run after the first. Each call therefore
// starts from cold state — byte-identical to a freshly-constructed
// predictor — while reusing its tables and the Runner's buffers, so
// repeated runs allocate nothing. The function must not be called
// concurrently; hold one per goroutine.
func Pooled[C any](p predictor.Predictor[C]) func(tr *trace.Trace, opt Options) Result {
	var rn Runner[C]
	dirty := false
	return func(tr *trace.Trace, opt Options) Result {
		if dirty {
			p.Reset()
		}
		dirty = true
		return rn.RunTrace(p, tr, opt)
	}
}

// Suite aggregates per-trace results the way the paper reports them: the
// suite MPPKI is the sum of the per-trace MPPKI values over the benchmark
// set (40 per-trace values of ~15–25 summing to the ~600-range totals the
// paper quotes).
type Suite struct {
	Results []Result
}

// Add appends a per-trace result.
func (s *Suite) Add(r Result) { s.Results = append(s.Results, r) }

// TotalMPPKI returns the summed MPPKI over all traces.
func (s *Suite) TotalMPPKI() float64 {
	t := 0.0
	for _, r := range s.Results {
		t += r.MPPKI
	}
	return t
}

// TotalMPKI returns the summed MPKI over all traces.
func (s *Suite) TotalMPKI() float64 {
	t := 0.0
	for _, r := range s.Results {
		t += r.MPKI
	}
	return t
}

// TotalMispredictions sums raw misprediction counts.
func (s *Suite) TotalMispredictions() uint64 {
	var t uint64
	for _, r := range s.Results {
		t += r.Mispredicts
	}
	return t
}

// AccessTotals sums access statistics across traces.
func (s *Suite) AccessTotals() memarray.Stats {
	var t memarray.Stats
	for _, r := range s.Results {
		t.Add(r.Access)
	}
	return t
}

// ByCategory returns summed MPPKI per benchmark category.
func (s *Suite) ByCategory() map[string]float64 {
	m := make(map[string]float64)
	for _, r := range s.Results {
		m[r.Category] += r.MPPKI
	}
	return m
}

// Subset returns a suite restricted to the named traces.
func (s *Suite) Subset(names map[string]bool) *Suite {
	out := &Suite{}
	for _, r := range s.Results {
		if names[r.Trace] {
			out.Add(r)
		}
	}
	return out
}

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
	"repro/internal/checkpoint"
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
	// across every cell touching the registry: a pass over k scenarios
	// counts each branch k times, once per cell. Advanced once per decode
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
	// OnCheckpoint, when non-nil, receives a checkpoint blob every
	// CheckpointEvery branches along the way when that is > 0 (taken
	// between decode batches, so the granularity is the batch size), and
	// one at the end of the trace, after the pipeline drains. It is
	// called at most once per branch position: the end-of-trace blob
	// supersedes a periodic one due after the last batch, and a run
	// resumed at its trace's end with no branch in flight makes no call
	// at all, since the blob it resumed from already is its end-of-trace
	// checkpoint. A resume the simulator refuses runs, and checkpoints,
	// as a cold run does. The blob is self-contained but valid only
	// until the callback returns: the Runner encodes the next checkpoint
	// into the same buffer, so a callback that keeps a blob must copy it.
	OnCheckpoint func(blob []byte, at uint64)
	// CheckpointEvery is the approximate branch interval between
	// periodic OnCheckpoint emissions (0 = only the end-of-trace blob).
	CheckpointEvery uint64

	// Also lists further update scenarios to simulate in the same pass
	// over the trace, each on a predictor lane of its own under the same
	// pipeline; Result.Also returns their results in order. Only Pooled
	// run functions accept it, and never together with Resume or
	// OnCheckpoint. A run function whose predictor cannot share a pass
	// returns no Also results (Pooled, for a predictor without
	// predictor.Sibling): the caller runs those scenarios singly.
	Also []predictor.Scenario
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
	// Elapsed is the wall-clock time the simulation took — a pass that
	// ran several scenarios splits its time evenly across them — and
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
	// Also holds the results of Options.Also, in order: all of them, or
	// none where the predictor cannot share a pass. A pooled run function
	// reuses the slice, so it is valid only until that function's next
	// call.
	Also []Result
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

// decodeBatch is the trace-decode block size: branches are copied out
// of the trace in blocks of this many, so the per-batch work (the
// retired-branch counter, the checkpoint check) amortises away. 256
// branches is 4KB of decode buffer — well within L1.
const decodeBatch = 256

// Runner is a reusable simulation engine for one context type C. It owns
// each lane's in-flight ring and retire-time array and the resolved
// telemetry handles, so a pool re-running cells of the same shape
// performs zero allocations after the first run. The zero value is
// ready to use; a Runner must not be shared between concurrent runs.
type Runner[C any] struct {
	// lanes are the pipelines of the last pass, one per predictor; their
	// buffers are reused by the next.
	lanes []lane[C]
	// Telemetry handles resolve against one registry and are reused while
	// Options.Metrics keeps pointing at it.
	reg        *metrics.Registry
	retiredCtr *metrics.Counter
	flushVec   *metrics.CounterVec
	// cursor reads the trace of the current pass; it is emptied after
	// the pass, so a pooled Runner holds no trace between passes.
	cursor trace.Cursor
	// batch is the decode buffer, kept on the Runner rather than in
	// run's 4KB stack frame.
	batch [decodeBatch]trace.Branch
	// enc encodes every checkpoint the Runner takes, Reset for each and
	// grown to the size sizer counts first, so once it holds a blob's
	// size checkpoints allocate nothing.
	enc   checkpoint.Encoder
	sizer checkpoint.Sizer
}

// lane is one predictor of a pass with a pipeline of its own: the
// in-flight ring and retire schedule, its scenario's retire policy, and
// the counters its Result reports.
type lane[C any] struct {
	p        predictor.Predictor[C]
	stats    *memarray.Stats
	scenario predictor.Scenario
	// window is the lane's in-flight depth; an [I] lane has none.
	window int
	// ring holds the in-flight branches; retireAt their retire times, in
	// its own small array so the post-misprediction drain walks a few
	// cache lines instead of striding over the context-carrying entries.
	ring              []inflight[C]
	retireAt          []uint64
	mask              int
	head, tail, count int // head = oldest, tail = next insert slot

	// The scenario dispatch, hoisted out of the per-retire path.
	rereadAlways, rereadOnMiss, countRereads bool

	// Simulator-owned access counters accumulate here and flush into the
	// predictor's stats once, after the pass (the predictor's own write
	// accounting still updates stats in place).
	mispreds, retireReads, writeEvents, retiredCount uint64
	penaltySum                                       float64
}

// start readies the lane to run p under sc with the given window. The
// ring needs room for window+1 in-flight branches plus the slot being
// inserted; rounding up to a power of two lets the hot path advance
// head and tail with a mask instead of %. The forced-retire threshold
// stays window+1 regardless of the rounded ring size.
func (ln *lane[C]) start(p predictor.Predictor[C], sc predictor.Scenario, window int) {
	if sc == predictor.ScenarioI {
		window = 0
	}
	size := bitutil.CeilPow2(window + 2)
	ring, retireAt := ln.ring, ln.retireAt
	if cap(ring) < size {
		ring = make([]inflight[C], size)
		retireAt = make([]uint64, size)
	} else {
		// Reused buffers must start zeroed: a fresh run sees zero-valued
		// contexts, and byte-identical reuse requires the same here (a
		// predictor's Predict is not obliged to overwrite every field).
		ring, retireAt = ring[:size], retireAt[:size]
		clear(ring)
		clear(retireAt)
	}
	*ln = lane[C]{
		p: p, stats: p.AccessStats(), scenario: sc, window: window,
		ring: ring, retireAt: retireAt, mask: size - 1,
		rereadAlways: sc == predictor.ScenarioI || sc == predictor.ScenarioA,
		rereadOnMiss: sc == predictor.ScenarioC,
		countRereads: sc != predictor.ScenarioI,
	}
}

// run simulates one pass over tr with one lane per predictor: lead
// under opt.Scenario, and each sibs[i] under opt.Also[i], whose result
// it writes to also[i]. For each branch every lane predicts, in lane
// order, before any lane resolves it, again in lane order: the order
// predictor.Sibling lanes rely on. Resume and OnCheckpoint apply to a
// one-lane pass only.
//
// The loop is allocation-free in steady state: the in-flight ring is
// sized to a power of two (head/tail advance by masking), the scenario
// dispatch is hoisted out of the retire path, and branches are decoded
// in blocks.
func (rn *Runner[C]) run(lead predictor.Predictor[C], sibs []predictor.Predictor[C], tr *trace.Trace, opt Options, also []Result) Result {
	if len(opt.Also) != len(sibs) {
		panic(fmt.Sprintf("sim: %d Also scenarios for %d sibling lanes; run Options.Also through Pooled", len(opt.Also), len(sibs)))
	}
	opt = opt.withDefaults()
	for len(rn.lanes) <= len(sibs) {
		rn.lanes = append(rn.lanes, lane[C]{})
	}
	lanes := rn.lanes[:1+len(sibs)]
	lanes[0].start(lead, opt.Scenario, opt.Window)
	for i, p := range sibs {
		lanes[1+i].start(p, opt.Also[i], opt.Window)
	}
	first := &lanes[0]
	src := &rn.cursor
	src.Seek(tr)

	// retireOne retires a lane's oldest in-flight branch. It is a closure
	// so that the compiler inlines it into the loop.
	retireOne := func(ln *lane[C]) {
		e := &ln.ring[ln.head]
		reread := ln.rereadAlways || (ln.rereadOnMiss && e.mispred)
		if reread && ln.countRereads {
			ln.retireReads++
		}
		writesBefore := ln.stats.EntryWrites
		ln.p.Retire(e.pc, e.taken, &e.ctx, reread)
		if ln.stats.EntryWrites != writesBefore {
			ln.writeEvents++
		}
		ln.retiredCount++
		ln.head = (ln.head + 1) & ln.mask
		ln.count--
	}

	// The pass's shared counters: every lane sees the same branches.
	var seq, branches, microOps uint64

	// Warm start: restore predictor state and the in-flight window from
	// a checkpoint, then skip the already-simulated trace prefix. A bad
	// blob degrades to a cold start — the warm cache is an optimization,
	// never a correctness dependency.
	var resumedAt uint64
	var resumeErr error
	var restoredMispreds uint64
	// resumedAtEnd marks a resume at the trace's end with nothing in
	// flight: the blob it resumed from already is the end-of-trace
	// checkpoint this run would take.
	var resumedAtEnd bool
	if opt.Resume != nil && len(opt.Resume.Blob) > 0 {
		st, err := rn.decodeCheckpoint(first, opt, opt.Resume.Blob)
		if err == nil {
			// A blob claiming a longer already-simulated prefix than the
			// trace holds cannot be a checkpoint of this cell; refuse it
			// before consuming the trace so the cold fallback sees all of
			// it.
			if st.branches > uint64(src.Len()) {
				err = fmt.Errorf("sim: checkpoint taken after %d branches, but this source holds only %d", st.branches, src.Len())
			}
		}
		if err == nil {
			seq, branches, microOps = st.seq, st.branches, st.microOps
			first.restore(st)
			restoredMispreds = st.mispreds
			resumedAt = uint64(src.Skip(int(branches)))
			resumedAtEnd = src.Len() == 0 && first.count == 0
		} else {
			resumeErr = err
			lead.Reset()
			clear(first.ring)
			clear(first.retireAt)
		}
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
		opt.OnCheckpoint(rn.encodeCheckpoint(first, opt, first.state(seq, branches, microOps)), branches)
	}

	start := time.Now()
	batch := rn.batch[:]
	for {
		n := src.NextBatch(batch)
		if n == 0 {
			break
		}
		retiredCtr.Add(uint64(n * len(lanes)))
		for _, b := range batch[:n] {
			for i := range lanes {
				ln := &lanes[i]
				// Retire branches whose time has come (in order).
				for ln.count > 0 && ln.retireAt[ln.head] <= seq {
					retireOne(ln)
				}
				// The ring must keep room for the incoming branch.
				if ln.count > ln.window {
					retireOne(ln)
				}
				e := &ln.ring[ln.tail]
				e.pc = b.PC
				e.taken = b.Taken
				e.mispred = ln.p.Predict(b.PC, &e.ctx) != b.Taken
			}
			for i := range lanes {
				ln := &lanes[i]
				t := ln.tail
				e := &ln.ring[t]
				ln.tail = (t + 1) & ln.mask
				ln.count++
				ln.p.OnResolve(b.PC, b.Taken, e.mispred, &e.ctx)
				ln.retireAt[t] = seq + uint64(ln.window)
				if e.mispred {
					ln.mispreds++
					ln.penaltySum += opt.PenaltyBase
					// Pipeline drain: everything in flight (including this
					// branch) retires within ExecDelay fetch slots of the
					// resolution.
					drainAt := seq + uint64(opt.ExecDelay)
					for j, left := ln.head, ln.count; left > 0; j, left = (j+1)&ln.mask, left-1 {
						if ln.retireAt[j] > drainAt {
							ln.retireAt[j] = drainAt
						}
					}
				}
			}
			branches++
			microOps += uint64(b.OpsBefore) + 1
			seq++
		}
		// After the last batch, the end-of-trace checkpoint stands in
		// for a periodic one at the same branch.
		if nextCk > 0 && branches >= nextCk && src.Len() > 0 {
			emitCheckpoint()
			for nextCk <= branches {
				nextCk += opt.CheckpointEvery
			}
		}
	}
	// Drain the pipeline at trace end.
	for i := range lanes {
		for lanes[i].count > 0 {
			retireOne(&lanes[i])
		}
	}
	// The end-of-trace checkpoint is taken after the drain and before
	// the stats flush: restoring it and "continuing" over zero branches
	// reproduces the final counters exactly.
	if opt.OnCheckpoint != nil && !resumedAtEnd {
		emitCheckpoint()
	}
	// The pass's time splits evenly across its lanes.
	elapsed := time.Since(start) / time.Duration(len(lanes))

	var res Result
	for i := range lanes {
		ln := &lanes[i]
		if rn.flushVec != nil {
			// Each misprediction drains the in-flight window — a pipeline
			// flush. Accumulated locally, flushed once per run; a warm start
			// adds only what this run simulated (the restored prefix was
			// accounted by the run that took the checkpoint).
			flushes := ln.mispreds
			if i == 0 {
				flushes -= restoredMispreds
			}
			rn.flushVec.With(ln.scenario.Letter()).Add(flushes)
		}
		r := ln.result(tr.Name, tr.Category, branches, microOps, opt.ExecDelay, elapsed)
		if i == 0 {
			r.ResumedAt, r.ResumeErr = resumedAt, resumeErr
			res = r
		} else {
			also[i-1] = r
		}
	}
	src.Seek(nil)
	return res
}

// result flushes the lane's counters into its predictor's stats and
// reports its run.
func (ln *lane[C]) result(name, category string, branches, microOps uint64, execDelay int, elapsed time.Duration) Result {
	stats := ln.stats
	stats.PredictReads += branches
	stats.Mispredictions += ln.mispreds
	stats.RetireReads += ln.retireReads
	stats.WriteEvents += ln.writeEvents
	stats.RetiredBranch += ln.retiredCount

	res := Result{
		Trace:       name,
		Category:    category,
		Predictor:   ln.p.Name(),
		Scenario:    ln.scenario,
		Branches:    branches,
		MicroOps:    microOps,
		Mispredicts: ln.mispreds,
		Access:      *stats,
		Window:      ln.window,
		ExecDelay:   execDelay,
		Elapsed:     elapsed,
	}
	if secs := elapsed.Seconds(); secs > 0 && branches > 0 {
		res.BranchesPerSec = float64(branches) / secs
	}
	if microOps > 0 {
		kilo := float64(microOps) / 1000
		res.MPKI = float64(ln.mispreds) / kilo
		res.MPPKI = ln.penaltySum / kilo
	}
	if branches > 0 {
		res.Misprediction = float64(ln.mispreds) / float64(branches)
	}
	return res
}

// RunTrace simulates predictor p over tr, reusing the Runner's
// buffers. The predictor must be freshly constructed or Reset. It is
// the one-lane pass: Options.Also runs through Pooled.
func (rn *Runner[C]) RunTrace(p predictor.Predictor[C], tr *trace.Trace, opt Options) Result {
	return rn.run(p, nil, tr, opt, nil)
}

// Pooled returns a run function that simulates p on one reusable Runner,
// Resetting p before every run after the first. Each call therefore
// starts from cold state — byte-identical to a freshly-constructed
// predictor — while reusing its tables and the Runner's buffers, so
// repeated runs allocate nothing. The function must not be called
// concurrently; hold one per goroutine.
//
// When p implements predictor.Sibling, Options.Also runs further
// scenarios in the same pass over the trace: p leads and one sibling per
// further scenario follows, each built on first use and Reset before
// every later pass. Result.Also returns their results in order, in a
// slice the next call reuses; each equals its scenario's single run,
// except that Elapsed is the pass's time split evenly across its lanes.
// A predictor without Sibling shares nothing across scenarios, so its
// run ignores Also and returns no Also results: the caller runs those
// scenarios singly. Also combined with Resume or OnCheckpoint panics: a
// checkpoint holds one lane.
func Pooled[C any](p predictor.Predictor[C]) func(tr *trace.Trace, opt Options) Result {
	var rn Runner[C]
	fork, shares := p.(predictor.Sibling[C])
	lanes := []predictor.Predictor[C]{p}
	dirty := []bool{false} // lanes run since their last Reset
	// prepare returns the first n lanes, building and Resetting them as
	// needed.
	prepare := func(n int) []predictor.Predictor[C] {
		for len(lanes) < n {
			lanes = append(lanes, fork.Sibling())
			dirty = append(dirty, false)
		}
		for i := range n {
			if dirty[i] {
				lanes[i].Reset()
			}
			dirty[i] = true
		}
		return lanes[:n]
	}
	var also []Result
	return func(tr *trace.Trace, opt Options) Result {
		if len(opt.Also) > 0 && (opt.Resume != nil || opt.OnCheckpoint != nil) {
			panic("sim: Options.Also cannot combine with Resume or OnCheckpoint")
		}
		if len(opt.Also) == 0 || !shares {
			opt.Also = nil
			return rn.RunTrace(prepare(1)[0], tr, opt)
		}
		if cap(also) < len(opt.Also) {
			also = make([]Result, len(opt.Also))
		}
		also = also[:len(opt.Also)]
		ps := prepare(1 + len(opt.Also))
		res := rn.run(ps[0], ps[1:], tr, opt, also)
		res.Also = also
		return res
	}
}

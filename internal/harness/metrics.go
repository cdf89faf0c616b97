package harness

import (
	"io"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Metric family names the harness exports when Config.Metrics is set.
// Exported as constants so scrapers, the progress reporter, tests and
// CI smoke checks agree on one vocabulary (the sim-owned families live
// in internal/sim: sim.MetricBranchesRetired, sim.MetricPipelineFlushes).
const (
	// MetricJobsStarted counts jobs handed to a worker.
	MetricJobsStarted = "bpbench_jobs_started_total"
	// MetricJobs counts finished jobs by result: succeeded, failed, or
	// skipped (reused from a resume store instead of executed).
	MetricJobs = "bpbench_jobs_total"
	// MetricJobsInFlight gauges jobs currently executing, per worker.
	MetricJobsInFlight = "bpbench_jobs_in_flight"
	// MetricQueueWaitSeconds is the histogram of how long each job sat
	// queued between pool start and worker pick-up.
	MetricQueueWaitSeconds = "bpbench_job_queue_wait_seconds"
	// MetricJobSeconds is the histogram of per-job execution latency.
	MetricJobSeconds = "bpbench_job_seconds"
	// MetricTraceCacheHits / Misses count shared-trace-cache outcomes.
	MetricTraceCacheHits   = "bpbench_trace_cache_hits_total"
	MetricTraceCacheMisses = "bpbench_trace_cache_misses_total"
	// MetricPredictorPoolHits / Misses count predictor-pool outcomes: a
	// hit reuses a worker's warmed predictor via Reset, a miss constructs
	// one (the first cell of each model on each worker).
	MetricPredictorPoolHits   = "bpbench_predictor_pool_hits_total"
	MetricPredictorPoolMisses = "bpbench_predictor_pool_misses_total"
	// MetricWarmCacheHits / Misses count checkpoint-cache outcomes when
	// Config.WarmCache is set: a hit is a cell that actually warm-started
	// from a cached blob (skipping its simulated prefix), a miss is a
	// cold start — no blob, or one the simulator refused and fell back
	// from.
	MetricWarmCacheHits   = "bpbench_warm_cache_hits_total"
	MetricWarmCacheMisses = "bpbench_warm_cache_misses_total"
	// MetricWarmCacheWriteErrors counts checkpoint blobs that failed to
	// persist (temp-file create, write or rename error): a read-only or
	// full cache directory shows up here instead of as a silent
	// all-misses perf cliff.
	MetricWarmCacheWriteErrors = "bpbench_warm_cache_write_errors_total"
	// MetricCellsTotal / MetricCellsDone gauge sweep progress: cells in
	// the expanded grid and cells completed (reused cells count as done
	// immediately). Gauges, not counters, so sequential matrices on one
	// registry accumulate a single coherent done/total pair.
	MetricCellsTotal = "bpbench_cells_total"
	MetricCellsDone  = "bpbench_cells_done"
	// MetricRecordsEmitted counts records streamed to sinks, by kind.
	MetricRecordsEmitted = "bpbench_records_emitted_total"
	// MetricBranchesPerSec is the derived aggregate simulator throughput
	// of the current run (a callback gauge re-anchored at each run start).
	MetricBranchesPerSec = "bpbench_branches_per_sec"

	// Store telemetry (the resumable JSONL result store).
	MetricStoreAppends       = "bpbench_store_appends_total"
	MetricStoreAppendBytes   = "bpbench_store_append_bytes"
	MetricStoreAppendSeconds = "bpbench_store_append_seconds"
	MetricStoreCrashTails    = "bpbench_store_crash_tails_total"
	MetricStoreReused        = "bpbench_store_resume_reused_total"

	// Lease telemetry (the distributed sweep service). The counters are
	// labelled by worker id, so one coordinator /metrics scrape shows
	// per-worker grant/renew/complete/expire activity and delivered
	// record counts across the whole farm.
	MetricLeasesGranted    = "bpbench_leases_granted_total"
	MetricLeasesCompleted  = "bpbench_leases_completed_total"
	MetricLeasesExpired    = "bpbench_leases_expired_total"
	MetricLeaseRenewals    = "bpbench_lease_renewals_total"
	MetricWorkerRecords    = "bpbench_worker_records_total"
	MetricLeaseJobsPending = "bpbench_lease_jobs_pending"
	MetricLeaseJobsLeased  = "bpbench_lease_jobs_leased"
	// MetricSweepSubmissions counts /v1/sweep submissions accepted by a
	// `bpbench serve` coordinator.
	MetricSweepSubmissions = "bpbench_sweep_submissions_total"
)

// runMetrics resolves the harness's metric handles once per run, so the
// worker loop touches pre-resolved atomics instead of the registry. A
// nil *runMetrics (telemetry off) is checked once per job, keeping the
// uninstrumented path identical to the pre-telemetry harness.
type runMetrics struct {
	reg           *metrics.Registry
	started       *metrics.Counter
	jobs          *metrics.CounterVec
	inFlight      *metrics.GaugeVec
	queueWait     *metrics.Histogram
	jobTime       *metrics.Histogram
	cacheHits     *metrics.Counter
	cacheMisses   *metrics.Counter
	poolHits      *metrics.Counter
	poolMisses    *metrics.Counter
	warmHits      *metrics.Counter
	warmMisses    *metrics.Counter
	warmWriteErrs *metrics.Counter
	cellsTotal    *metrics.Gauge
	cellsDone     *metrics.Gauge
	records       *metrics.CounterVec
	poolStart     time.Time
}

func newRunMetrics(reg *metrics.Registry) *runMetrics {
	if reg == nil {
		return nil
	}
	return &runMetrics{
		reg:           reg,
		started:       reg.Counter(MetricJobsStarted, "Jobs handed to a worker."),
		jobs:          reg.CounterVec(MetricJobs, "Jobs finished, by result (succeeded, failed, skipped).", "result"),
		inFlight:      reg.GaugeVec(MetricJobsInFlight, "Jobs currently executing, per worker.", "worker"),
		queueWait:     reg.Histogram(MetricQueueWaitSeconds, "Seconds a job waited between pool start and worker pick-up.", metrics.ExpBuckets(0.0005, 4, 10)),
		jobTime:       reg.Histogram(MetricJobSeconds, "Per-job execution latency in seconds.", metrics.ExpBuckets(0.001, 4, 10)),
		cacheHits:     reg.Counter(MetricTraceCacheHits, "Trace-cache lookups served by an existing entry."),
		cacheMisses:   reg.Counter(MetricTraceCacheMisses, "Trace-cache lookups that generated the trace."),
		poolHits:      reg.Counter(MetricPredictorPoolHits, "Predictor-pool lookups served by a warmed instance (Reset reuse)."),
		poolMisses:    reg.Counter(MetricPredictorPoolMisses, "Predictor-pool lookups that constructed a predictor."),
		warmHits:      reg.Counter(MetricWarmCacheHits, "Cells warm-started from a cached checkpoint blob."),
		warmMisses:    reg.Counter(MetricWarmCacheMisses, "Cells cold-started: no cached blob, or an unusable one."),
		warmWriteErrs: reg.Counter(MetricWarmCacheWriteErrors, "Checkpoint blobs that failed to persist (create/write/rename error)."),
		cellsTotal:    reg.Gauge(MetricCellsTotal, "Cells in the expanded sweep grid."),
		cellsDone:     reg.Gauge(MetricCellsDone, "Cells completed (reused cells count immediately)."),
		records:       reg.CounterVec(MetricRecordsEmitted, "Records streamed to sinks, by kind.", "kind"),
	}
}

// beginRun anchors a run on the registry: progress gauges for the
// grid's size (reused cells are done before anything executes) and the
// branches/sec callback gauge, computed over branches retired since
// this run started — so /metrics and the progress line share exactly
// one source of truth. Nil-safe.
func (rm *runMetrics) beginRun(totalCells, reusedCells int) {
	if rm == nil {
		return
	}
	rm.cellsTotal.Add(float64(totalCells))
	if reusedCells > 0 {
		rm.cellsDone.Add(float64(reusedCells))
		rm.jobs.With("skipped").Add(uint64(reusedCells))
	}
	retired := rm.reg.Counter(sim.MetricBranchesRetired, sim.HelpBranchesRetired)
	base := retired.Value()
	start := time.Now()
	rm.reg.GaugeFunc(MetricBranchesPerSec, "Aggregate simulator throughput of the current run (branches/sec).", func() float64 {
		secs := time.Since(start).Seconds()
		if secs <= 0 {
			return 0
		}
		return float64(retired.Value()-base) / secs
	})
}

// recordEmitted accounts one record streamed to a sink. Nil-safe.
func (rm *runMetrics) recordEmitted(r Record) {
	if rm == nil {
		return
	}
	kind := r.Kind
	if kind == "" {
		kind = KindCell
	}
	rm.records.With(kind).Inc()
}

// jobBegin accounts a job's pick-up by worker w and returns the
// completion hook. Nil-safe: off, it returns a no-op without touching
// the clock.
func (rm *runMetrics) jobBegin(w int) func(failed bool) {
	if rm == nil {
		return func(bool) {}
	}
	pickup := time.Now()
	rm.queueWait.Observe(pickup.Sub(rm.poolStart).Seconds())
	rm.started.Inc()
	inFlight := rm.inFlight.With(strconv.Itoa(w))
	inFlight.Inc()
	return func(failed bool) {
		inFlight.Dec()
		rm.jobTime.Observe(time.Since(pickup).Seconds())
		if failed {
			rm.jobs.With("failed").Inc()
		} else {
			rm.jobs.With("succeeded").Inc()
		}
		rm.cellsDone.Inc()
	}
}

// storeMetrics instruments the resumable result store: appended lines,
// append sizes and latencies, truncated crash tails, and cells reused
// by resume planning. Nil when telemetry is off.
type storeMetrics struct {
	appends    *metrics.Counter
	bytes      *metrics.Histogram
	seconds    *metrics.Histogram
	crashTails *metrics.Counter
	reused     *metrics.Counter
}

func newStoreMetrics(reg *metrics.Registry) *storeMetrics {
	if reg == nil {
		return nil
	}
	return &storeMetrics{
		appends:    reg.Counter(MetricStoreAppends, "Records appended to the result store."),
		bytes:      reg.Histogram(MetricStoreAppendBytes, "Size in bytes of each store append.", metrics.ExpBuckets(64, 4, 8)),
		seconds:    reg.Histogram(MetricStoreAppendSeconds, "Latency in seconds of each store append.", metrics.ExpBuckets(0.00001, 4, 8)),
		crashTails: reg.Counter(MetricStoreCrashTails, "Torn final lines truncated from the store before appending."),
		reused:     reg.Counter(MetricStoreReused, "Cells reused from the store instead of re-run."),
	}
}

// meter wraps the store writer so every append (one Write per JSONL
// record) is counted and sized. Off, the writer passes through
// untouched.
func (sm *storeMetrics) meter(w io.Writer) io.Writer {
	if sm == nil {
		return w
	}
	return &meteredWriter{w: w, sm: sm}
}

type meteredWriter struct {
	w  io.Writer
	sm *storeMetrics
}

func (m *meteredWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := m.w.Write(p)
	m.sm.appends.Inc()
	m.sm.bytes.Observe(float64(n))
	m.sm.seconds.Observe(time.Since(start).Seconds())
	return n, err
}

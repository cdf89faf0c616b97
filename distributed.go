package repro

import (
	"context"
	"time"

	"repro/internal/harness"
	"repro/internal/models"
)

// Distributed sweep facade: the coordinator/worker/merge pieces of
// internal/harness re-exported under the Bench* naming the rest of the
// public surface uses, plus the model resolver of internal/models.
//
// A minimal farm is three processes:
//
//	bpbench serve -addr :9090 -store results/dist.jsonl
//	bpbench work -connect http://coordinator:9090
//	curl -d '{"models":["tage","gshare"]}' http://coordinator:9090/v1/sweep
//
// and programmatically:
//
//	queue := repro.NewBenchLeaseQueue(0, 0, reg)
//	svc := &repro.BenchService{Queue: queue, Resolve: repro.BenchResolver()}
//	svc.Register(mux)                      // coordinator side
//	repro.RunBenchWorker(ctx, repro.BenchWorkerOptions{
//		BaseURL: "http://coordinator:9090", Resolve: repro.BenchResolver(),
//	})                                     // worker side
type (
	// BenchScheduler executes expanded jobs on behalf of a run — the
	// seam BenchConfig.Scheduler plugs a distributed backend into.
	BenchScheduler = harness.Scheduler
	// BenchLeaseQueue shards jobs into TTL'd leases for pulling workers.
	BenchLeaseQueue = harness.LeaseQueue
	// BenchLeaseScheduler is the Scheduler that feeds a BenchLeaseQueue.
	BenchLeaseScheduler = harness.LeaseScheduler
	// BenchService is the coordinator's HTTP surface (sweep submission,
	// lease protocol).
	BenchService = harness.Service
	// BenchSweepRequest is the /v1/sweep submission body.
	BenchSweepRequest = harness.SweepRequest
	// BenchWorkerOptions configures RunBenchWorker.
	BenchWorkerOptions = harness.WorkerOptions
	// BenchModelResolver rebuilds a model from a spec string.
	BenchModelResolver = harness.ModelResolver
)

// NewBenchLeaseQueue constructs a lease queue. ttl<=0 and batch<=0
// select the defaults (30s, 4 cells per lease); reg may be nil.
func NewBenchLeaseQueue(ttl time.Duration, batch int, reg *MetricsRegistry) *BenchLeaseQueue {
	return harness.NewLeaseQueue(ttl, batch, reg)
}

// BenchResolver is the resolver coordinators and workers rebuild wire
// jobs with: internal/models' Resolve, the one BenchModels uses.
func BenchResolver() BenchModelResolver { return models.Resolve }

// RunBenchWorker pulls leases from a coordinator and executes them
// with the in-process engine until ctx is cancelled.
func RunBenchWorker(ctx context.Context, opt BenchWorkerOptions) error {
	return harness.RunWorker(ctx, opt)
}

// MergeBenchStores unions partial result stores into one canonical
// store with a single recomputed aggregate set, refusing stores that
// disagree about a cell (different window/exec-delay or model spec).
func MergeBenchStores(stores ...[]BenchRecord) ([]BenchRecord, BenchCompactStats, error) {
	return harness.MergeStores(stores...)
}

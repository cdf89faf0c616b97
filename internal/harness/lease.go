package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The lease protocol: a coordinator shards an expanded matrix into job
// leases — batches of cells with a TTL and heartbeat renewal — that
// workers pull, execute through the ordinary pooled executor, and
// complete by streaming records back. An expired lease returns its
// unfinished cells to the queue, so a worker that dies mid-batch never
// strands a cell; a cell is delivered into the sweep exactly once no
// matter how many workers end up running it.

// WireJob is the serialisable form of one cell: everything a worker
// needs to reconstruct the Job, given a ModelResolver for the spec
// string (Model holds functions and cannot travel). Its Key matches the
// Job's, which is how completions find their way back.
type WireJob struct {
	Index int    `json:"index"`
	Model string `json:"model"`
	Spec  string `json:"spec,omitempty"`
	Trace string `json:"trace"`
	// TraceSpec is the resolvable trace-spec string when it differs
	// from Trace (file-backed sources ship "file:<path>" while Trace
	// carries the content hash); empty means Trace resolves itself.
	// Workers regenerate the trace from this, deterministically.
	TraceSpec string `json:"trace_spec,omitempty"`
	Scenario  string `json:"scenario"`
	Branches  int    `json:"branches"`
	DeltaLog  int    `json:"delta_log,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Window    int    `json:"window,omitempty"`
	ExecDelay int    `json:"exec_delay,omitempty"`
}

// Key is the canonical cell identifier, identical to Job.Key for the
// job the wire form was made from.
func (w WireJob) Key() string {
	return CellKey(w.Model, w.Trace, w.Scenario, w.Branches)
}

// wireJob flattens a Job for the wire.
func wireJob(j Job) WireJob {
	return WireJob{
		Index:     j.Index,
		Model:     j.Model.Name,
		Spec:      j.Model.Spec,
		Trace:     j.Spec.Name,
		TraceSpec: traceSpecOf(j.Spec),
		Scenario:  j.Scenario.Letter(),
		Branches:  j.Branches,
		DeltaLog:  j.DeltaLog,
		Seed:      j.Seed,
		Window:    j.Opts.Window,
		ExecDelay: j.Opts.ExecDelay,
	}
}

// ModelResolver rebuilds a harness model from its canonical spec string
// (or name, for models without one). internal/models' Resolve is the
// resolver bpbench, farm workers and the experiments use; it is injected
// rather than imported because that package layers on top of this one.
type ModelResolver func(spec string) (Model, error)

// Job reconstructs the executable job on a worker. The resolved model
// keeps the wire name (scaled variants key their cells as "base@+d")
// but is otherwise whatever the resolver built, so records produced
// remotely are byte-identical to local ones.
func (w WireJob) Job(resolve ModelResolver) (Job, error) {
	if resolve == nil {
		return Job{}, errors.New("harness: no model resolver configured")
	}
	spec := w.Spec
	if spec == "" {
		spec = w.Model
	}
	mdl, err := resolve(spec)
	if err != nil {
		return Job{}, fmt.Errorf("harness: resolving model %q: %w", spec, err)
	}
	mdl.Name = w.Model
	src := w.TraceSpec
	if src == "" {
		src = w.Trace
	}
	tr, err := workload.ResolveSpec(src)
	if err != nil {
		return Job{}, fmt.Errorf("harness: resolving trace %q: %w", src, err)
	}
	if tr.Name != w.Trace {
		return Job{}, fmt.Errorf("harness: trace spec %q resolves to %q, but the lease names cell trace %q (did the file's contents change?)", src, tr.Name, w.Trace)
	}
	scs, err := ParseScenarios(w.Scenario)
	if err != nil {
		return Job{}, err
	}
	// The scenario is part of the cell key a completion is matched by, so
	// only its canonical letter rebuilds the cell the lease holds.
	if len(scs) != 1 || scs[0].Letter() != w.Scenario {
		return Job{}, fmt.Errorf("harness: want exactly one scenario letter, got %q", w.Scenario)
	}
	j := Job{
		Index:    w.Index,
		Model:    mdl,
		Spec:     tr,
		Scenario: scs[0],
		Branches: w.Branches,
		DeltaLog: w.DeltaLog,
		Seed:     w.Seed,
		Opts:     sim.Options{Scenario: scs[0], Window: w.Window, ExecDelay: w.ExecDelay},
	}
	if j.Seed == 0 {
		j.Seed = JobSeed(j.Key())
	}
	return j, nil
}

// wireFailedRecord tags a wire job that could not even be reconstructed
// (unresolvable spec, unknown trace). Built from the wire fields alone
// so its Key always matches the queued cell and the failure is
// delivered instead of the lease churning forever.
func wireFailedRecord(w WireJob, err error) Record {
	return Record{
		Kind:      KindCell,
		Model:     w.Model,
		Spec:      w.Spec,
		Trace:     w.Trace,
		TraceSpec: w.TraceSpec,
		Scenario:  w.Scenario,
		Branches:  w.Branches,
		Seed:      w.Seed,
		DeltaLog:  w.DeltaLog,
		Err:       err.Error(),
	}
}

// Lease is one batch of cells granted to a worker, valid for TTLSeconds
// unless renewed (Renew resets the clock). Completing or letting it
// expire are the only exits; expiry requeues the unfinished cells.
type Lease struct {
	ID         string    `json:"id"`
	Worker     string    `json:"worker"`
	TTLSeconds float64   `json:"ttl_seconds"`
	Jobs       []WireJob `json:"jobs"`
}

// ErrLeaseGone reports a renewal or completion against a lease the
// queue no longer tracks: it expired (its cells are back in the queue,
// possibly already re-leased) or never existed.
var ErrLeaseGone = errors.New("harness: lease expired or unknown")

// queuedJob is one cell awaiting (or under) a lease. done flips exactly
// once, under the queue lock — whoever flips it owns the delivery — so
// a late completion racing an expiry-requeue-rerun can never deliver a
// cell twice.
type queuedJob struct {
	idx     int
	wire    WireJob
	key     string
	deliver func(Record)
	done    bool
}

type activeLease struct {
	id      string
	worker  string
	jobs    []*queuedJob
	expires time.Time
}

// DefaultLeaseTTL and DefaultLeaseBatch are the queue defaults: a TTL
// long enough for several 200k-branch cells plus heartbeat slack, and
// batches small enough that a straggling worker holds few cells back.
const (
	DefaultLeaseTTL   = 30 * time.Second
	DefaultLeaseBatch = 4
)

// LeaseQueue is the coordinator side of the lease protocol: pending
// cells go in via a LeaseScheduler, workers take TTL-bounded batches
// out with Acquire (or, while running one, Prefetch), keep them alive
// with Renew, and hand records back with Complete. All methods are safe
// for concurrent use.
type LeaseQueue struct {
	ttl   time.Duration
	batch int

	mu      sync.Mutex
	seq     uint64
	pending []*queuedJob
	leases  map[string]*activeLease
	wake    chan struct{}
	seen    map[string]time.Time // when each worker last asked or renewed

	granted, completed, expired, renewals, records *metrics.CounterVec
	pendingG, leasedG                              *metrics.Gauge
}

// NewLeaseQueue builds a queue with the given lease TTL and batch size
// (non-positive values select the defaults). reg, when non-nil,
// receives the lease metric families — counters labelled by worker id,
// so one /metrics scrape shows which worker granted, renewed, expired
// or completed what.
func NewLeaseQueue(ttl time.Duration, batch int, reg *metrics.Registry) *LeaseQueue {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if batch <= 0 {
		batch = DefaultLeaseBatch
	}
	return &LeaseQueue{
		ttl:       ttl,
		batch:     batch,
		leases:    make(map[string]*activeLease),
		seen:      make(map[string]time.Time),
		wake:      make(chan struct{}),
		granted:   reg.CounterVec(MetricLeasesGranted, "Leases granted, by worker.", "worker"),
		completed: reg.CounterVec(MetricLeasesCompleted, "Leases completed, by worker.", "worker"),
		expired:   reg.CounterVec(MetricLeasesExpired, "Leases expired (cells requeued), by worker.", "worker"),
		renewals:  reg.CounterVec(MetricLeaseRenewals, "Lease heartbeat renewals, by worker.", "worker"),
		records:   reg.CounterVec(MetricWorkerRecords, "Cell records delivered, by worker.", "worker"),
		pendingG:  reg.Gauge(MetricLeaseJobsPending, "Cells queued awaiting a lease."),
		leasedG:   reg.Gauge(MetricLeaseJobsLeased, "Cells out on active leases."),
	}
}

// TTL reports the queue's lease TTL.
func (q *LeaseQueue) TTL() time.Duration { return q.ttl }

func (q *LeaseQueue) wakeLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// reapLocked expires overdue leases: their unfinished cells go back to
// the FRONT of the queue (they have been waiting longest) and waiting
// acquirers are woken.
func (q *LeaseQueue) reapLocked(now time.Time) {
	for id, l := range q.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(q.leases, id)
		var back []*queuedJob
		for _, j := range l.jobs {
			if !j.done {
				back = append(back, j)
			}
		}
		if len(back) > 0 {
			q.pending = append(back, q.pending...)
			q.wakeLocked()
		}
		q.expired.With(l.worker).Inc()
	}
}

// pendingLocked counts the cells awaiting a lease.
func (q *LeaseQueue) pendingLocked() int {
	n := 0
	for _, j := range q.pending {
		if !j.done {
			n++
		}
	}
	return n
}

// aloneLocked reports whether worker is the only one heard from within
// a TTL, forgetting the workers that have gone quiet.
func (q *LeaseQueue) aloneLocked(worker string, now time.Time) bool {
	alone := true
	for w, at := range q.seen {
		if now.Sub(at) > q.ttl {
			delete(q.seen, w)
		} else if w != worker {
			alone = false
		}
	}
	return alone
}

// gaugesLocked recomputes the pending/leased cell gauges; cheap at
// queue-operation frequency and immune to accounting drift.
func (q *LeaseQueue) gaugesLocked() {
	var l float64
	for _, al := range q.leases {
		for _, j := range al.jobs {
			if !j.done {
				l++
			}
		}
	}
	q.pendingG.Set(float64(q.pendingLocked()))
	q.leasedG.Set(l)
}

// enqueue adds cells for leasing (LeaseScheduler's half).
func (q *LeaseQueue) enqueue(items []*queuedJob) {
	q.mu.Lock()
	q.pending = append(q.pending, items...)
	q.gaugesLocked()
	q.wakeLocked()
	q.mu.Unlock()
}

// abandon withdraws cells that will never be needed (the submission's
// context was cancelled), returning the ones actually withdrawn — the
// caller delivers their failure records itself. Cells already claimed
// by a racing Complete are left to that delivery.
func (q *LeaseQueue) abandon(items []*queuedJob) []*queuedJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	var withdrawn []*queuedJob
	for _, j := range items {
		if j.done {
			continue
		}
		j.done = true
		withdrawn = append(withdrawn, j)
	}
	q.gaugesLocked()
	return withdrawn
}

// Acquire grants the next batch of pending cells to worker, waiting up
// to wait for work to appear before returning nil (no work). The grant
// starts the lease's TTL clock.
func (q *LeaseQueue) Acquire(worker string, wait time.Duration) *Lease {
	return q.acquire(context.TODO(), worker, wait, false)
}

// Prefetch grants worker, which is running a lease, the batch it will
// run next, without waiting. It grants only a worker the queue has
// heard from alone within a TTL: while other workers are at work, none
// is granted a batch ahead that a faster one could run. And it never
// takes the last batch: while no more cells are pending than one lease
// holds it returns nil, leaving them to a worker that is idle now (a
// worker not yet heard from included), or to this one once its lease
// ends.
func (q *LeaseQueue) Prefetch(worker string) *Lease {
	return q.acquire(context.TODO(), worker, 0, true)
}

// acquire is Acquire, or Prefetch if prefetch is set, that stops
// waiting and grants nothing once ctx (the long poll's request) ends.
func (q *LeaseQueue) acquire(ctx context.Context, worker string, wait time.Duration, prefetch bool) *Lease {
	deadline := time.Now().Add(wait)
	for {
		q.mu.Lock()
		now := time.Now()
		q.reapLocked(now)
		q.seen[worker] = now
		limit := q.batch
		if prefetch && (q.pendingLocked() <= q.batch || !q.aloneLocked(worker, now)) {
			limit = 0 // left to a worker that is or may soon be idle
		}
		var take []*queuedJob
		for len(q.pending) > 0 && len(take) < limit {
			j := q.pending[0]
			q.pending = q.pending[1:]
			if !j.done {
				take = append(take, j)
			}
		}
		if len(take) > 0 {
			q.seq++
			l := &activeLease{
				id:      fmt.Sprintf("lease-%d", q.seq),
				worker:  worker,
				jobs:    take,
				expires: now.Add(q.ttl),
			}
			q.leases[l.id] = l
			q.granted.With(worker).Inc()
			q.gaugesLocked()
			q.mu.Unlock()
			out := &Lease{ID: l.id, Worker: worker, TTLSeconds: q.ttl.Seconds(), Jobs: make([]WireJob, len(take))}
			for i, j := range take {
				out.Jobs[i] = j.wire
			}
			return out
		}
		wake := q.wake
		q.gaugesLocked()
		q.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		// Cap the sleep so expiring leases are reaped promptly even when
		// no enqueue wakes us.
		poll := remain
		if poll > 250*time.Millisecond {
			poll = 250 * time.Millisecond
		}
		select {
		case <-wake:
		case <-time.After(poll):
		case <-ctx.Done():
			return nil
		}
	}
}

// Renew extends a live lease by a full TTL; ErrLeaseGone when the lease
// already expired (its cells are requeued — the worker should stop).
func (q *LeaseQueue) Renew(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(time.Now())
	l, ok := q.leases[id]
	if !ok {
		return ErrLeaseGone
	}
	l.expires = time.Now().Add(q.ttl)
	q.seen[l.worker] = time.Now()
	q.renewals.With(l.worker).Inc()
	return nil
}

// Complete closes a lease with its records, matched to cells by Key and
// delivered first-wins (a cell another worker already delivered after
// an expiry is dropped). Records for cells the lease did not hold are
// ignored; cells the records miss are requeued immediately and reported
// in the error. ErrLeaseGone when the lease already expired — the cells
// are (or soon will be) re-run elsewhere, deterministically producing
// the same records, so rejecting the late copy loses nothing.
func (q *LeaseQueue) Complete(id string, recs []Record) error {
	q.mu.Lock()
	q.reapLocked(time.Now())
	l, ok := q.leases[id]
	if !ok {
		q.mu.Unlock()
		return ErrLeaseGone
	}
	delete(q.leases, id)
	byKey := make(map[string]Record, len(recs))
	for _, r := range recs {
		if r.Kind == KindCell || r.Kind == "" {
			byKey[r.Key()] = r
		}
	}
	type delivery struct {
		j *queuedJob
		r Record
	}
	var out []delivery
	var missing []*queuedJob
	for _, j := range l.jobs {
		if j.done {
			continue
		}
		r, have := byKey[j.key]
		if !have {
			missing = append(missing, j)
			continue
		}
		j.done = true
		out = append(out, delivery{j, r})
	}
	var err error
	if len(missing) > 0 {
		q.pending = append(missing, q.pending...)
		q.wakeLocked()
		err = fmt.Errorf("harness: lease %s results missing %d of %d cells (first: %s); the missing cells were requeued", id, len(missing), len(l.jobs), missing[0].key)
	}
	q.completed.With(l.worker).Inc()
	q.records.With(l.worker).Add(uint64(len(out)))
	q.gaugesLocked()
	q.mu.Unlock()
	// Deliveries run outside the lock: a delivery unblocks the waiting
	// scheduler, which may immediately re-enter the queue.
	for _, d := range out {
		d.j.deliver(d.r)
	}
	return err
}

// LeaseScheduler executes jobs by queueing them as leases for remote
// workers instead of running them in-process: the Scheduler the
// coordinator (`bpbench serve`) plugs into Config.Scheduler. Records
// arrive in whatever order workers complete; Schedule re-serialises
// them into job order exactly like the local pool's reorder buffer, and
// stamps cfg.Provenance — the coordinator's, since its store does the
// appending — onto every delivered record.
type LeaseScheduler struct {
	Queue *LeaseQueue
	// Ctx, when non-nil, aborts the wait: jobs not yet delivered are
	// withdrawn from the queue and fail with the context's error (the
	// records say so), letting a cancelled HTTP submission release its
	// cells instead of stranding the queue.
	Ctx context.Context
}

func (s *LeaseScheduler) Schedule(jobs []Job, cfg Config, visit func(Record)) []Record {
	rm := newRunMetrics(cfg.Metrics)
	if rm != nil {
		rm.poolStart = time.Now()
	}
	results := make([]Record, len(jobs))
	done := make([]chan struct{}, len(jobs))
	items := make([]*queuedJob, len(jobs))
	for i := range jobs {
		i := i
		done[i] = make(chan struct{})
		w := wireJob(jobs[i])
		items[i] = &queuedJob{
			idx:  i,
			wire: w,
			key:  w.Key(),
			deliver: func(r Record) {
				if cfg.Provenance != nil {
					r.Provenance = cfg.Provenance
				}
				results[i] = r
				close(done[i])
			},
		}
	}
	s.Queue.enqueue(items)

	var ctxDone <-chan struct{}
	if s.Ctx != nil {
		ctxDone = s.Ctx.Done()
	}
	aborted := false
	for i := range jobs {
		if !aborted {
			select {
			case <-done[i]:
			case <-ctxDone:
				aborted = true
				err := context.Cause(s.Ctx)
				// Withdraw everything not yet claimed; deliveries already
				// in flight complete normally. done flips under the queue
				// lock, so exactly one of the two paths fills each slot.
				for _, it := range s.Queue.abandon(items) {
					it.deliver(failedRecord(jobs[it.idx], err))
				}
			}
		}
		<-done[i]
		if rm != nil {
			if results[i].Failed() {
				rm.jobs.With("failed").Inc()
			} else {
				rm.jobs.With("succeeded").Inc()
			}
			rm.cellsDone.Inc()
		}
		visit(results[i])
	}
	return results
}

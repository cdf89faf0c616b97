package harness

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/predictor"
)

// leaseJobs expands a small fake-model grid for queue-level tests.
func leaseJobs(t *testing.T, models ...string) []Job {
	t.Helper()
	ms := make([]Model, len(models))
	for i, m := range models {
		ms[i] = fakeModel(m, flat(float64(i+1)))
	}
	m := testMatrix(t, ms, []string{"INT01", "INT02"}, []predictor.Scenario{predictor.ScenarioA}, []int{100})
	jobs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// fakeWorkerRecord fabricates the record a worker would post for a wire
// job, without running anything.
func fakeWorkerRecord(w WireJob) Record {
	return Record{
		Kind: KindCell, Model: w.Model, Spec: w.Spec, Trace: w.Trace,
		Scenario: w.Scenario, Branches: w.Branches, Seed: w.Seed,
		MPKI: 1, MPPKI: 20,
	}
}

// drainQueue acquires and completes leases with fabricated records
// until the queue runs dry, like a perfectly healthy worker.
func drainQueue(t *testing.T, q *LeaseQueue, worker string) {
	t.Helper()
	for {
		lease := q.Acquire(worker, 2*time.Second)
		if lease == nil {
			return
		}
		recs := make([]Record, len(lease.Jobs))
		for i, wj := range lease.Jobs {
			recs[i] = fakeWorkerRecord(wj)
		}
		if err := q.Complete(lease.ID, recs); err != nil {
			t.Errorf("Complete(%s): %v", lease.ID, err)
			return
		}
	}
}

func TestLeaseSchedulerDeliversInJobOrder(t *testing.T) {
	reg := metrics.NewRegistry()
	q := NewLeaseQueue(time.Minute, 3, reg)
	jobs := leaseJobs(t, "m1", "m2")
	prov := &Provenance{GitSHA: "abc1234", Schema: SchemaVersion}

	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		drainQueue(t, q, "w1")
	}()

	s := &LeaseScheduler{Queue: q}
	var visited []string
	recs := s.Schedule(jobs, Config{Provenance: prov, Metrics: reg}, func(r Record) {
		visited = append(visited, r.Key())
	})
	<-workerDone

	if len(recs) != len(jobs) {
		t.Fatalf("got %d records, want %d", len(recs), len(jobs))
	}
	for i, j := range jobs {
		if recs[i].Key() != j.Key() {
			t.Fatalf("recs[%d] = %s, want %s (delivery order broken)", i, recs[i].Key(), j.Key())
		}
		if visited[i] != j.Key() {
			t.Fatalf("visit order: visited[%d] = %s, want %s", i, visited[i], j.Key())
		}
		if recs[i].Provenance != prov {
			t.Fatalf("recs[%d] not stamped with the coordinator's provenance", i)
		}
		if recs[i].Failed() {
			t.Fatalf("recs[%d] failed: %s", i, recs[i].Err)
		}
	}
	if got := reg.CounterVec(MetricLeasesGranted, "", "worker").With("w1").Value(); got == 0 {
		t.Fatal("no leases accounted to w1")
	}
	if got := reg.CounterVec(MetricWorkerRecords, "", "worker").With("w1").Value(); got != uint64(len(jobs)) {
		t.Fatalf("worker records counter = %d, want %d", got, len(jobs))
	}
}

// enqueueCells puts n cells of fresh jobs on q.
func enqueueCells(t *testing.T, q *LeaseQueue, models ...string) {
	t.Helper()
	jobs := leaseJobs(t, models...) // 2 cells a model
	items := make([]*queuedJob, len(jobs))
	for i, j := range jobs {
		w := wireJob(j)
		items[i] = &queuedJob{idx: i, wire: w, key: w.Key(), deliver: func(Record) {}}
	}
	q.enqueue(items)
}

// TestPrefetchLeavesTheLastLease: a prefetch takes a batch only while
// more than one batch of cells is pending, and answers at once.
func TestPrefetchLeavesTheLastLease(t *testing.T) {
	for _, batch := range []int{1, 2} {
		q := NewLeaseQueue(time.Minute, batch, nil)
		if l := q.Prefetch("w"); l != nil {
			t.Fatalf("batch %d: prefetch from an empty queue granted %+v", batch, l)
		}
		enqueueCells(t, q, "m1")
		if batch == 1 {
			if l := q.Prefetch("w"); l == nil || len(l.Jobs) != 1 {
				t.Fatalf("batch 1, two cells pending: prefetch granted %+v, want one cell", l)
			}
		}
		start := time.Now()
		if l := q.Prefetch("w"); l != nil {
			t.Fatalf("batch %d: prefetch took the last pending lease %+v", batch, l)
		}
		if waited := time.Since(start); waited > time.Second {
			t.Fatalf("batch %d: a refused prefetch waited %v", batch, waited)
		}
		if l := q.Acquire("idle", time.Second); l == nil || len(l.Jobs) != batch {
			t.Fatalf("batch %d: the idle worker got %+v, want the last lease", batch, l)
		}
	}
}

// TestPrefetchOnlyForALoneWorker: while another worker has asked for or
// renewed a lease within a TTL, a prefetch gets nothing; once that
// worker has gone quiet for a TTL, prefetching resumes.
func TestPrefetchOnlyForALoneWorker(t *testing.T) {
	const ttl = 100 * time.Millisecond
	q := NewLeaseQueue(ttl, 1, nil)
	enqueueCells(t, q, "m1", "m2", "m3") // 6 cells
	if l := q.Prefetch("a"); l == nil {
		t.Fatal("a lone worker's prefetch got nothing")
	}
	b := q.Acquire("b", 0)
	if b == nil {
		t.Fatal("b got no lease")
	}
	if l := q.Prefetch("a"); l != nil {
		t.Fatalf("a prefetched %+v while b was working", l)
	}
	time.Sleep(ttl / 2)
	if err := q.Renew(b.ID); err != nil {
		t.Fatal(err)
	}
	time.Sleep(ttl / 2)
	if l := q.Prefetch("a"); l != nil {
		t.Fatalf("a prefetched %+v while b was renewing its lease", l)
	}
	time.Sleep(2 * ttl) // b goes quiet; its lease expires and requeues
	if l := q.Prefetch("a"); l == nil {
		t.Fatal("a's prefetch got nothing after b went quiet")
	}
}

func TestLeaseExpiryRequeuesAndRejectsLateCompletion(t *testing.T) {
	// No scheduling stall outlasts this TTL, so nothing expires before
	// the test lets the TTL pass, which it does by moving the lease's
	// deadline rather than by sleeping.
	const ttl = time.Minute
	q := NewLeaseQueue(ttl, 2, nil)
	jobs := leaseJobs(t, "m1") // 2 cells
	items := make([]*queuedJob, len(jobs))
	for i, j := range jobs {
		w := wireJob(j)
		items[i] = &queuedJob{idx: i, wire: w, key: w.Key(), deliver: func(Record) {}}
	}
	q.enqueue(items)

	// A doomed worker takes the lease and dies without completing.
	granted := time.Now()
	doomed := q.Acquire("dead", time.Second)
	returned := time.Now()
	if doomed == nil || len(doomed.Jobs) != 2 {
		t.Fatalf("doomed lease = %+v", doomed)
	}
	q.mu.Lock()
	expires := q.leases[doomed.ID].expires
	q.mu.Unlock()
	if expires.Before(granted.Add(ttl)) || expires.After(returned.Add(ttl)) {
		t.Fatalf("lease expires %v after it was asked for, want the %v TTL from its grant", expires.Sub(granted), ttl)
	}
	if q.Acquire("idle", 0) != nil {
		t.Fatal("cells leased twice before expiry")
	}
	// The TTL passes with no renewal.
	q.mu.Lock()
	q.leases[doomed.ID].expires = time.Now()
	q.mu.Unlock()

	// The cells come back and a healthy worker gets them.
	release := q.Acquire("healthy", time.Second)
	if release == nil {
		t.Fatal("expired lease's cells were not requeued")
	}
	if len(release.Jobs) != 2 {
		t.Fatalf("requeued lease has %d cells, want 2", len(release.Jobs))
	}
	for i := range release.Jobs {
		if release.Jobs[i].Key() != doomed.Jobs[i].Key() {
			t.Fatalf("requeued cell %d = %s, want %s", i, release.Jobs[i].Key(), doomed.Jobs[i].Key())
		}
	}

	// The doomed worker's late completion must be rejected, not
	// double-delivered.
	recs := make([]Record, len(doomed.Jobs))
	for i, wj := range doomed.Jobs {
		recs[i] = fakeWorkerRecord(wj)
	}
	if err := q.Complete(doomed.ID, recs); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("late Complete = %v, want ErrLeaseGone", err)
	}
	if err := q.Renew(doomed.ID); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("late Renew = %v, want ErrLeaseGone", err)
	}

	// The healthy worker's completion still lands.
	recs = recs[:0]
	for _, wj := range release.Jobs {
		recs = append(recs, fakeWorkerRecord(wj))
	}
	if err := q.Complete(release.ID, recs); err != nil {
		t.Fatalf("healthy Complete: %v", err)
	}
}

func TestLeaseRenewKeepsLeaseAlive(t *testing.T) {
	q := NewLeaseQueue(60*time.Millisecond, 4, nil)
	jobs := leaseJobs(t, "m1")
	items := make([]*queuedJob, len(jobs))
	for i, j := range jobs {
		w := wireJob(j)
		items[i] = &queuedJob{idx: i, wire: w, key: w.Key(), deliver: func(Record) {}}
	}
	q.enqueue(items)

	lease := q.Acquire("w", time.Second)
	if lease == nil {
		t.Fatal("no lease")
	}
	// Renew through three TTL windows; the cells must never requeue.
	for i := 0; i < 6; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := q.Renew(lease.ID); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if other := q.Acquire("thief", 10*time.Millisecond); other != nil {
		t.Fatalf("renewed lease's cells were stolen: %+v", other)
	}
	recs := make([]Record, len(lease.Jobs))
	for i, wj := range lease.Jobs {
		recs[i] = fakeWorkerRecord(wj)
	}
	if err := q.Complete(lease.ID, recs); err != nil {
		t.Fatalf("Complete after renewals: %v", err)
	}
}

func TestLeaseCompleteMissingCellsRequeued(t *testing.T) {
	q := NewLeaseQueue(time.Minute, 4, nil)
	jobs := leaseJobs(t, "m1") // INT01, INT02
	delivered := make(map[string]int)
	items := make([]*queuedJob, len(jobs))
	for i, j := range jobs {
		w := wireJob(j)
		key := w.Key()
		items[i] = &queuedJob{idx: i, wire: w, key: key, deliver: func(Record) { delivered[key]++ }}
	}
	q.enqueue(items)

	lease := q.Acquire("w", time.Second)
	if lease == nil || len(lease.Jobs) != 2 {
		t.Fatalf("lease = %+v", lease)
	}
	// Post only the first cell's record.
	err := q.Complete(lease.ID, []Record{fakeWorkerRecord(lease.Jobs[0])})
	if err == nil || !strings.Contains(err.Error(), "missing 1 of 2") {
		t.Fatalf("partial Complete = %v, want missing-cells error", err)
	}
	if delivered[lease.Jobs[0].Key()] != 1 {
		t.Fatal("present cell was not delivered")
	}

	// The missing cell is immediately re-leasable.
	again := q.Acquire("w2", time.Second)
	if again == nil || len(again.Jobs) != 1 || again.Jobs[0].Key() != lease.Jobs[1].Key() {
		t.Fatalf("requeued lease = %+v, want just %s", again, lease.Jobs[1].Key())
	}
	if err := q.Complete(again.ID, []Record{fakeWorkerRecord(again.Jobs[0])}); err != nil {
		t.Fatalf("Complete retry: %v", err)
	}
	for k, n := range delivered {
		if n != 1 {
			t.Fatalf("cell %s delivered %d times", k, n)
		}
	}
}

func TestLeaseSchedulerAbortFailsUndeliveredCells(t *testing.T) {
	q := NewLeaseQueue(time.Minute, 4, nil)
	jobs := leaseJobs(t, "m1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // no worker will ever come

	s := &LeaseScheduler{Queue: q, Ctx: ctx}
	recs := s.Schedule(jobs, Config{}, func(Record) {})
	if len(recs) != len(jobs) {
		t.Fatalf("got %d records, want %d", len(recs), len(jobs))
	}
	for i, r := range recs {
		if !r.Failed() {
			t.Fatalf("recs[%d] should have failed (submission cancelled), got %+v", i, r)
		}
		if r.Key() != jobs[i].Key() {
			t.Fatalf("recs[%d] = %s, want %s", i, r.Key(), jobs[i].Key())
		}
	}
	// The queue must not still be holding the abandoned cells.
	if l := q.Acquire("w", 10*time.Millisecond); l != nil {
		t.Fatalf("abandoned cells still leasable: %+v", l)
	}
}

func TestWireJobRoundTrip(t *testing.T) {
	jobs := leaseJobs(t, "m1")
	j := jobs[0]
	w := wireJob(j)
	if w.Key() != j.Key() {
		t.Fatalf("wire key %s != job key %s", w.Key(), j.Key())
	}
	back, err := w.Job(func(spec string) (Model, error) {
		return fakeModel(spec, flat(1)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != j.Key() || back.Seed != j.Seed || back.Index != j.Index {
		t.Fatalf("round trip: got (%s seed=%d idx=%d), want (%s seed=%d idx=%d)",
			back.Key(), back.Seed, back.Index, j.Key(), j.Seed, j.Index)
	}
	if back.Opts.Window != j.Opts.Window || back.Opts.ExecDelay != j.Opts.ExecDelay {
		t.Fatal("pipeline options lost in round trip")
	}

	// Unknown traces fail to a deliverable record, not silence.
	w.Trace = "NOPE99"
	if _, err := w.Job(func(string) (Model, error) { return Model{}, nil }); err == nil {
		t.Fatal("unknown trace did not error")
	}
	rec := wireFailedRecord(w, errors.New("boom"))
	if rec.Key() != w.Key() || !rec.Failed() {
		t.Fatalf("wireFailedRecord key %s / failed %v", rec.Key(), rec.Failed())
	}
}

package harness

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// serveQueue stands up a coordinator over q that resolves fake models;
// wrap, when non-nil, sees every request before the service does.
func serveQueue(t *testing.T, q *LeaseQueue, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	(&Service{Queue: q, Resolve: fakeResolver(3)}).Register(mux)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// runWorkers runs one RunWorker per id until the test ends, each
// resolving specs to fakeModel(spec) whose Run goes through run.
func runWorkers(t *testing.T, baseURL string, run func(tr *trace.Trace, inner func() sim.Result) sim.Result, ids ...string) {
	t.Helper()
	resolve := func(spec string) (Model, error) {
		m := fakeModel(spec, flat(3))
		inner := m.Run
		m.Run = func(tr *trace.Trace, opt sim.Options) sim.Result {
			return run(tr, func() sim.Result { return inner(tr, opt) })
		}
		return m, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, len(ids))
	for _, id := range ids {
		go func() {
			done <- RunWorker(ctx, WorkerOptions{
				BaseURL: baseURL, ID: id, Resolve: resolve,
				Config: Config{Parallelism: 1}, Poll: 10 * time.Millisecond,
			})
		}()
	}
	t.Cleanup(func() {
		cancel()
		for range ids {
			if err := <-done; err != nil {
				t.Errorf("worker: %v", err)
			}
		}
	})
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// oneCellSweep submits fm1 over traces at scenario A, the sweep
// localEquivalent runs, and checks the records against it.
func oneCellSweep(t *testing.T, baseURL string, traces ...string) {
	t.Helper()
	got := submitSweep(t, baseURL, SweepRequest{Models: []string{"fm1"}, Traces: traces, Branches: []int{100}})
	want := localEquivalent(t, []string{"fm1"}, traces, []int{100})
	if !reflect.DeepEqual(scrubTiming(got), scrubTiming(want)) {
		t.Fatalf("distributed sweep diverged from local run\n got: %+v\nwant: %+v", got, want)
	}
}

// TestWorkerPrefetchedLeaseOutlivesSlowLease: the lease a worker fetches
// ahead waits, unstarted, for longer than the TTL while the current
// lease runs; its heartbeat from the grant keeps it alive, so nothing
// expires and every cell runs exactly once.
func TestWorkerPrefetchedLeaseOutlivesSlowLease(t *testing.T) {
	const ttl = 400 * time.Millisecond
	reg := metrics.NewRegistry()
	q := NewLeaseQueue(ttl, 1, reg)
	srv := serveQueue(t, q, nil)
	var mu sync.Mutex
	runs := map[string]int{}
	var fetchedAhead atomic.Bool
	runWorkers(t, srv.URL, func(tr *trace.Trace, inner func() sim.Result) sim.Result {
		mu.Lock()
		runs[tr.Name]++
		mu.Unlock()
		if tr.Name == "INT01" {
			fetchedAhead.Store(waitFor(5*time.Second, func() bool {
				return reg.Snapshot().Value(MetricLeasesGranted) >= 2
			}))
			time.Sleep(3 * ttl)
		}
		return inner()
	}, "w")

	traces := []string{"INT01", "INT02", "INT03"}
	oneCellSweep(t, srv.URL, traces...)
	if !fetchedAhead.Load() {
		t.Error("the worker fetched no lease ahead while its first lease ran")
	}
	if n := reg.Snapshot().Value(MetricLeasesExpired); n != 0 {
		t.Errorf("%v leases expired, want 0", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, tr := range traces {
		if runs[tr] != 1 {
			t.Errorf("%s ran %d times, want once", tr, runs[tr])
		}
	}
}

// TestTwoWorkersOnTwoLeasesRunOneEach: a prefetch never takes the last
// pending lease, so two workers on a sweep of exactly two leases run one
// lease each. w2 asks for work only once w1 holds the first lease and
// has asked for the next, so w1 asks as a worker working alone, and
// every cell waits until a cell of the other lease has started, which
// only w2 can do.
func TestTwoWorkersOnTwoLeasesRunOneEach(t *testing.T) {
	reg := metrics.NewRegistry()
	var w1Leased, w1AskedAgain atomic.Bool
	srv := serveQueue(t, NewLeaseQueue(time.Minute, 2, reg), func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/lease" {
				switch r.URL.Query().Get("worker") {
				case "w1":
					sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
					next.ServeHTTP(sw, r)
					if w1Leased.Load() {
						w1AskedAgain.Store(true)
					}
					if sw.status == http.StatusOK {
						w1Leased.Store(true)
					}
					return
				case "w2":
					waitFor(time.Minute, func() bool { return w1AskedAgain.Load() || r.Context().Err() != nil })
					if r.Context().Err() != nil {
						return
					}
				}
			}
			next.ServeHTTP(w, r)
		})
	})
	var started atomic.Int64
	runWorkers(t, srv.URL, func(tr *trace.Trace, inner func() sim.Result) sim.Result {
		started.Add(1)
		waitFor(3*time.Second, func() bool { return started.Load() >= 2 })
		return inner()
	}, "w1", "w2")

	oneCellSweep(t, srv.URL, "INT01", "INT02", "INT03", "INT04")
	s := reg.Snapshot()
	for _, w := range []string{"w1", "w2"} {
		if smp, _ := s.Sample(MetricLeasesGranted, w); smp.Value != 1 {
			t.Errorf("%s was granted %v leases, want 1", w, smp.Value)
		}
	}
}

// TestSlowWorkerReservesNoLeaseFromAFastOne: with two workers at work,
// neither fetches a lease ahead, so a slow worker never holds a lease
// that the fast one would wait for. Both have asked for work before
// the sweep; the slow worker's cells take a second and the fast one's
// take none, so the fast one runs every lease but the one the slow
// worker started first.
func TestSlowWorkerReservesNoLeaseFromAFastOne(t *testing.T) {
	reg := metrics.NewRegistry()
	var asked sync.Map
	srv := serveQueue(t, NewLeaseQueue(time.Minute, 1, reg), func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/lease" {
				asked.Store(r.URL.Query().Get("worker"), true)
			}
			next.ServeHTTP(w, r)
		})
	})
	resolve := func(slow bool) ModelResolver {
		return func(spec string) (Model, error) {
			m := fakeModel(spec, flat(3))
			if inner := m.Run; slow {
				m.Run = func(tr *trace.Trace, opt sim.Options) sim.Result {
					time.Sleep(time.Second)
					return inner(tr, opt)
				}
			}
			return m, nil
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 2)
	for _, id := range []string{"slow", "fast"} {
		go func() {
			done <- RunWorker(ctx, WorkerOptions{
				BaseURL: srv.URL, ID: id, Resolve: resolve(id == "slow"),
				Config: Config{Parallelism: 1}, Poll: 10 * time.Millisecond,
			})
		}()
	}
	defer func() {
		cancel()
		for range 2 {
			if err := <-done; err != nil {
				t.Errorf("worker: %v", err)
			}
		}
	}()
	if !waitFor(5*time.Second, func() bool {
		_, s := asked.Load("slow")
		_, f := asked.Load("fast")
		return s && f
	}) {
		t.Fatal("the workers never asked for work")
	}

	oneCellSweep(t, srv.URL, "INT01", "INT02", "INT03", "INT04", "INT05", "INT06")
	s := reg.Snapshot()
	if smp, _ := s.Sample(MetricLeasesGranted, "slow"); smp.Value > 1 {
		t.Errorf("the slow worker was granted %v leases, want at most 1", smp.Value)
	}
}

// wireWatch sits in front of a coordinator and checks a worker's overlap
// on the wire. Every lease is one cell, run in grant order. At each
// grant the worker may hold at most two leases whose results have not
// landed: the one it runs and the one it fetched ahead. At most one
// results post may be in flight. A post made while the worker holds a
// lease ahead is held until that lease's cell starts, which happens
// only if the post runs in the background.
type wireWatch struct {
	started atomic.Int64 // cells started, counted by the worker's model

	mu                  sync.Mutex
	held, maxHeld       int // granted leases whose results have not landed
	posting, maxPosting int
	landed, stalled     int
}

// statusWriter records the status a handler answers with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (ww *wireWatch) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/lease":
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			next.ServeHTTP(sw, r)
			if sw.status == http.StatusOK {
				ww.mu.Lock()
				ww.held++
				ww.maxHeld = max(ww.maxHeld, ww.held)
				ww.mu.Unlock()
			}
		case "/v1/results":
			ww.mu.Lock()
			ww.posting++
			ww.maxPosting = max(ww.maxPosting, ww.posting)
			ahead, want := ww.held > 1, int64(ww.landed+2)
			ww.mu.Unlock()
			if ahead && !waitFor(2*time.Second, func() bool { return ww.started.Load() >= want }) {
				ww.mu.Lock()
				ww.stalled++
				ww.mu.Unlock()
			}
			next.ServeHTTP(w, r)
			ww.mu.Lock()
			ww.posting--
			ww.held--
			ww.landed++
			ww.mu.Unlock()
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// TestWorkerOverlapStaysBounded: a worker fetches the next lease while
// one runs and posts results while the next runs, but never holds more
// than one lease it has not started and never has two posts in flight.
func TestWorkerOverlapStaysBounded(t *testing.T) {
	ww := &wireWatch{}
	srv := serveQueue(t, NewLeaseQueue(time.Minute, 1, nil), ww.wrap)
	runWorkers(t, srv.URL, func(tr *trace.Trace, inner func() sim.Result) sim.Result {
		ww.started.Add(1)
		return inner()
	}, "w")

	oneCellSweep(t, srv.URL, "INT01", "INT02", "INT03", "INT04", "INT05", "INT06")
	ww.mu.Lock()
	defer ww.mu.Unlock()
	if ww.maxHeld != 2 {
		t.Errorf("the worker held at most %d leases whose results had not landed, want 2 (one running, one fetched ahead)", ww.maxHeld)
	}
	if ww.maxPosting != 1 {
		t.Errorf("%d results posts were in flight at once, want at most 1", ww.maxPosting)
	}
	if ww.stalled != 0 {
		t.Errorf("%d posts did not overlap the lease fetched ahead", ww.stalled)
	}
	if n := ww.started.Load(); n != 6 {
		t.Errorf("%d cells started, want 6", n)
	}
}

// stub is a coordinator that grants the single-cell leases l1..ln, li
// running trace INT0i, one per request, and then has no work. Its
// results endpoint sends each post's lease id on posted, then holds the
// post until release closes (answering 500 for the lease reject names
// and 204 for the rest) or the worker abandons it.
type stub struct {
	n         int
	ttl       float64 // lease TTL in seconds; 0 means 60
	reject    string  // the lease whose results are refused
	lost      string  // the lease whose renewals are refused (410)
	failAhead bool    // answer the first prefetch 503

	posted  chan string
	release chan struct{}
	polls   atomic.Int64 // lease requests other than prefetches
}

func (s *stub) serve(t *testing.T) string {
	t.Helper()
	if s.ttl == 0 {
		s.ttl = 60
	}
	s.posted = make(chan string, s.n)
	if s.release == nil {
		s.release = make(chan struct{})
	}
	var granted atomic.Int64
	var failedAhead atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		if s.failAhead && r.URL.Query().Get("prefetch") == "1" && !failedAhead.Swap(true) {
			http.Error(w, "coordinator restarting", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Query().Get("prefetch") != "1" {
			s.polls.Add(1)
		}
		i := granted.Add(1)
		if i > int64(s.n) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		fmt.Fprintf(w, `{"id":"l%d","worker":"w","ttl_seconds":%g,"jobs":[{"model":"fm","trace":"INT0%d","scenario":"A","branches":100}]}`, i, s.ttl, i)
	})
	mux.HandleFunc("/v1/renew", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("id") == s.lost {
			w.WriteHeader(http.StatusGone)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/v1/results", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // the server notices an abandoned request only once the body is read
		id := r.URL.Query().Get("id")
		s.posted <- id
		select {
		case <-s.release:
			if id == s.reject {
				http.Error(w, "store is read-only", http.StatusInternalServerError)
			} else {
				w.WriteHeader(http.StatusNoContent)
			}
		case <-r.Context().Done():
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// runStubWorker runs one RunWorker against base until ctx ends.
func runStubWorker(ctx context.Context, base string, resolve ModelResolver) <-chan error {
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerOptions{BaseURL: base, ID: "w", Resolve: resolve, Poll: 10 * time.Millisecond})
	}()
	return done
}

// nextPost waits for the stub's next results post and checks its lease.
func nextPost(t *testing.T, s *stub, want string) {
	t.Helper()
	select {
	case id := <-s.posted:
		if id != want {
			t.Fatalf("results posted for %s, want %s", id, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the worker never posted %s", want)
	}
}

// TestWorkerReturnsItsFailedPost: a rejected results post ends RunWorker
// with that error, and only once the post has ended.
func TestWorkerReturnsItsFailedPost(t *testing.T) {
	s := &stub{n: 1, reject: "l1"}
	done := runStubWorker(context.Background(), s.serve(t), fakeResolver(3))
	nextPost(t, s, "l1")
	select {
	case err := <-done:
		t.Fatalf("RunWorker returned (%v) while its post was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(s.release)
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "store is read-only") {
			t.Fatalf("RunWorker returned %v, want the rejected post's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunWorker did not return after its post failed")
	}
}

// TestWorkerCancelledMidPostStops: cancelling the worker abandons its
// post in flight and RunWorker returns nil.
func TestWorkerCancelledMidPostStops(t *testing.T) {
	s := &stub{n: 1, reject: "l1"}
	ctx, cancel := context.WithCancel(context.Background())
	done := runStubWorker(ctx, s.serve(t), fakeResolver(3))
	nextPost(t, s, "l1")
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled worker returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled worker did not return")
	}
}

// TestWorkerPostsTheLeaseRunDuringAFailedPost: when a post fails while
// the next lease runs, the worker still posts that lease's results
// before it returns the failed post's error.
func TestWorkerPostsTheLeaseRunDuringAFailedPost(t *testing.T) {
	s := &stub{n: 2, reject: "l1"}
	done := runStubWorker(context.Background(), s.serve(t), fakeResolver(3))
	nextPost(t, s, "l1")
	close(s.release)
	nextPost(t, s, "l2")
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "store is read-only") {
			t.Fatalf("RunWorker returned %v, want the rejected post's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunWorker did not return after its post failed")
	}
}

// TestWorkerSurvivesAFailedPrefetch: when the request for the lease
// ahead fails, the finished lease's results still land and the worker
// goes on asking for work instead of giving up.
func TestWorkerSurvivesAFailedPrefetch(t *testing.T) {
	s := &stub{n: 2, failAhead: true, release: make(chan struct{})}
	close(s.release)
	ctx, cancel := context.WithCancel(context.Background())
	done := runStubWorker(ctx, s.serve(t), fakeResolver(3))
	nextPost(t, s, "l1")
	nextPost(t, s, "l2")
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("RunWorker returned %v, want nil", err)
	}
}

// TestWorkerSkipsALeaseLostBeforeItStarts: a lease fetched ahead whose
// renewal is refused while it waits is never run; the coordinator has
// already requeued its cells.
func TestWorkerSkipsALeaseLostBeforeItStarts(t *testing.T) {
	s := &stub{n: 2, ttl: 0.3, lost: "l2", release: make(chan struct{})}
	close(s.release)
	var mu sync.Mutex
	runs := map[string]int{}
	resolve := func(spec string) (Model, error) {
		m := fakeModel(spec, flat(3))
		inner := m.Run
		m.Run = func(tr *trace.Trace, opt sim.Options) sim.Result {
			mu.Lock()
			runs[tr.Name]++
			mu.Unlock()
			if tr.Name == "INT01" {
				time.Sleep(time.Second) // l2's first renewal, at 100 ms, is refused
			}
			return inner(tr, opt)
		}
		return m, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := runStubWorker(ctx, s.serve(t), resolve)
	nextPost(t, s, "l1")
	// The worker polls again only once it is done with l2.
	if !waitFor(10*time.Second, func() bool { return s.polls.Load() >= 2 }) {
		t.Fatal("the worker never asked for work after l1")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("RunWorker returned %v, want nil", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if runs["INT02"] != 0 {
		t.Errorf("the lost lease's cell ran %d times, want 0", runs["INT02"])
	}
	select {
	case id := <-s.posted:
		t.Errorf("results posted for %s, want none after l1", id)
	default:
	}
}

// refusingTransport fails the first refuse requests it sees, the way a
// coordinator that is not listening yet refuses connections, and sends
// the rest on (nil next fails every request).
type refusingTransport struct {
	refuse int64
	next   http.RoundTripper
	seen   atomic.Int64
}

func (rt *refusingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if n := rt.seen.Add(1); n <= rt.refuse || rt.next == nil {
		return nil, fmt.Errorf("dial %s: connection refused (request %d)", req.URL.Host, n)
	}
	return rt.next.RoundTrip(req)
}

// TestWorkerRetriesARefusedLongPoll: a worker whose first few long polls
// are refused backs off and asks again, and the sweep it then runs
// matches a local run.
func TestWorkerRetriesARefusedLongPoll(t *testing.T) {
	srv := serveQueue(t, NewLeaseQueue(time.Minute, 1, nil), nil)
	rt := &refusingTransport{refuse: longPollAttempts - 1, next: http.DefaultTransport}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerOptions{
			BaseURL: srv.URL, ID: "w", Resolve: fakeResolver(3),
			Config: Config{Parallelism: 1}, Poll: time.Millisecond,
			Client: &http.Client{Transport: rt},
		})
	}()
	t.Cleanup(cancel)
	if !waitFor(10*time.Second, func() bool { return rt.seen.Load() > rt.refuse }) {
		t.Fatalf("the worker stopped asking after %d refused long polls", rt.seen.Load())
	}
	oneCellSweep(t, srv.URL, "INT01", "INT02")
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("RunWorker returned %v, want nil", err)
	}
}

// TestWorkerGivesUpOnADeadCoordinator: against a coordinator that never
// answers, RunWorker returns the refusal after exactly longPollAttempts
// long polls.
func TestWorkerGivesUpOnADeadCoordinator(t *testing.T) {
	rt := &refusingTransport{}
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), WorkerOptions{
			BaseURL: "http://coordinator.invalid", ID: "w", Resolve: fakeResolver(3),
			Poll: time.Millisecond, Client: &http.Client{Transport: rt},
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "connection refused") {
			t.Fatalf("RunWorker returned %v, want the refusal", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunWorker kept polling a dead coordinator")
	}
	if got := rt.seen.Load(); got != longPollAttempts {
		t.Fatalf("RunWorker gave up after %d long polls, want %d", got, longPollAttempts)
	}
}

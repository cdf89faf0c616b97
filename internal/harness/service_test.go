package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeResolver builds a fake model for any spec — the worker-side
// counterpart of the fake models a test matrix uses, so remote
// execution produces the exact records a local run would.
func fakeResolver(mpki float64) ModelResolver {
	return func(spec string) (Model, error) {
		return fakeModel(spec, flat(mpki)), nil
	}
}

// scrubTiming zeroes the per-record fields that legitimately differ
// between two executions of the same sweep: wall-clock telemetry and
// the provenance pointer.
func scrubTiming(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		r.ElapsedSec = 0
		r.BranchesPerSec = 0
		r.Provenance = nil
		out[i] = r
	}
	return out
}

// newTestService stands up a coordinator (service + queue + httptest
// server) over fake models, returning the base URL.
func newTestService(t *testing.T, ttl time.Duration, store string) (*Service, *httptest.Server) {
	t.Helper()
	q := NewLeaseQueue(ttl, 2, nil)
	svc := &Service{Queue: q, Resolve: fakeResolver(3), Store: store}
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return svc, srv
}

// startWorker runs a real RunWorker against the coordinator until the
// test ends.
func startWorker(t *testing.T, baseURL, id string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerOptions{
			BaseURL: baseURL,
			ID:      id,
			Resolve: fakeResolver(3),
			Poll:    10 * time.Millisecond,
		})
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker %s: %v", id, err)
		}
	})
}

// submitSweep POSTs a sweep and decodes the streamed JSONL response.
func submitSweep(t *testing.T, baseURL string, req SweepRequest) []Record {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("sweep returned %s: %s", resp.Status, msg.String())
	}
	recs, err := ReadRecords(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// localEquivalent runs the same grid in-process with the same fake
// models, the ground truth a distributed run must reproduce.
func localEquivalent(t *testing.T, models []string, traces []string, lengths []int) []Record {
	t.Helper()
	ms := make([]Model, len(models))
	for i, m := range models {
		ms[i] = fakeModel(m, flat(3))
	}
	matrix := testMatrix(t, ms, traces, []predictor.Scenario{predictor.ScenarioA}, lengths)
	var sink collectSink
	if _, err := Run(matrix, Config{}, &sink); err != nil {
		t.Fatal(err)
	}
	return sink.recs
}

func TestServiceSweepMatchesLocalRun(t *testing.T) {
	_, srv := newTestService(t, time.Minute, "")
	startWorker(t, srv.URL, "w1")

	got := submitSweep(t, srv.URL, SweepRequest{
		Models:   []string{"fm1", "fm2"},
		Traces:   []string{"INT01", "INT02"},
		Branches: []int{100},
	})
	want := localEquivalent(t, []string{"fm1", "fm2"}, []string{"INT01", "INT02"}, []int{100})
	if !reflect.DeepEqual(scrubTiming(got), scrubTiming(want)) {
		t.Fatalf("distributed sweep diverged from local run\n got: %+v\nwant: %+v", got, want)
	}
}

func TestServiceSweepSurvivesDeadWorker(t *testing.T) {
	// Short TTL so the zombie's lease expires within the test.
	_, srv := newTestService(t, 150*time.Millisecond, "")

	// Submit first, with no worker: cells queue up.
	type result struct{ recs []Record }
	resCh := make(chan result, 1)
	var once sync.Once
	go func() {
		recs := submitSweep(t, srv.URL, SweepRequest{
			Models:   []string{"fm1"},
			Traces:   []string{"INT01", "INT02"},
			Branches: []int{100},
		})
		once.Do(func() { resCh <- result{recs} })
	}()

	// A zombie worker grabs a lease and dies without heartbeating or
	// completing.
	var zombie *Lease
	deadline := time.Now().Add(5 * time.Second)
	for zombie == nil {
		if time.Now().After(deadline) {
			t.Fatal("queue never offered the zombie a lease")
		}
		resp, err := http.Get(srv.URL + "/v1/lease?worker=zombie&wait=1")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			zombie = new(Lease)
			if err := json.NewDecoder(resp.Body).Decode(zombie); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
	}
	if len(zombie.Jobs) == 0 {
		t.Fatal("zombie lease carries no cells")
	}

	// A healthy worker arrives; the expired lease's cells must re-run
	// and the sweep must still produce the full, correct record set.
	startWorker(t, srv.URL, "healthy")
	var got []Record
	select {
	case r := <-resCh:
		got = r.recs
	case <-time.After(10 * time.Second):
		t.Fatal("sweep never completed after worker death")
	}
	want := localEquivalent(t, []string{"fm1"}, []string{"INT01", "INT02"}, []int{100})
	if !reflect.DeepEqual(scrubTiming(got), scrubTiming(want)) {
		t.Fatalf("post-death sweep diverged from local run\n got: %+v\nwant: %+v", got, want)
	}

	// The zombie's eventual completion is firmly rejected.
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, wj := range zombie.Jobs {
		sink.Emit(wireFailedRecord(wj, context.DeadlineExceeded))
	}
	resp, err := http.Post(srv.URL+"/v1/results?id="+zombie.ID, "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("late zombie completion returned %s, want 410 Gone", resp.Status)
	}
}

func TestServiceStoreBackedSweepIsResumable(t *testing.T) {
	store := t.TempDir() + "/dist.jsonl"
	svc, srv := newTestService(t, time.Minute, store)
	prov := Provenance{GitSHA: "feedbeef", Schema: SchemaVersion}
	svc.Config.Provenance = &prov
	startWorker(t, srv.URL, "w1")

	req := SweepRequest{Models: []string{"fm1"}, Traces: []string{"INT01", "INT02"}, Branches: []int{100}}
	first := submitSweep(t, srv.URL, req)
	if len(first) == 0 {
		t.Fatal("first submission streamed nothing")
	}
	for _, r := range first {
		if r.Provenance == nil || r.Provenance.GitSHA != "feedbeef" {
			t.Fatalf("record %s not stamped with coordinator provenance: %+v", r.Key(), r.Provenance)
		}
	}

	stored, _, err := ReadStoreFile(store)
	if err != nil {
		t.Fatal(err)
	}
	ms := []Model{fakeModel("fm1", flat(3))}
	matrix := testMatrix(t, ms, []string{"INT01", "INT02"}, []predictor.Scenario{predictor.ScenarioA}, []int{100})
	jobs, err := matrix.Expand()
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanResume(jobs, stored, prov)
	if len(plan.Todo) != 0 {
		t.Fatalf("store not complete after sweep: %d cells todo", len(plan.Todo))
	}

	// Resubmitting the same sweep reuses every cell: nothing appended,
	// nothing streamed back.
	second := submitSweep(t, srv.URL, req)
	if len(second) != 0 {
		t.Fatalf("resubmission appended %d records, want 0 (all reused)", len(second))
	}
}

func TestServiceRejectsBadSweeps(t *testing.T) {
	_, srv := newTestService(t, time.Minute, "")
	for name, body := range map[string]string{
		"no models":     `{}`,
		"bad scenario":  `{"models":["m"],"scenarios":"Z"}`,
		"bad trace":     `{"models":["m"],"traces":["NOPE99"]}`,
		"bad branches":  `{"models":["m"],"branches":[-5]}`,
		"not even json": `{{{`,
	} {
		resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %s, want 400", name, resp.Status)
		}
	}
}

// TestCancelledLongPollReleasesTheServer: a worker that gives up on a
// long poll (cancelled, or its connection dropped) must not leave the
// handler waiting out the poll's wait, or closing the server waits
// with it.
func TestCancelledLongPollReleasesTheServer(t *testing.T) {
	q := NewLeaseQueue(time.Minute, 2, nil)
	svc := &Service{Queue: q, Resolve: fakeResolver(3)}
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/lease?worker=gone&wait=30", nil)
	if err != nil {
		t.Fatal(err)
	}
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	// The queue records the worker on entering the poll.
	for waiting := false; !waiting; {
		time.Sleep(time.Millisecond)
		q.mu.Lock()
		_, waiting = q.seen["gone"]
		q.mu.Unlock()
	}
	cancel()
	<-polled

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("closing the server still waits on a cancelled 30 s long poll after 1 s")
	}
}

func TestWorkerReportsUnresolvableCellsAsFailures(t *testing.T) {
	q := NewLeaseQueue(time.Minute, 2, nil)
	svc := &Service{Queue: q, Resolve: fakeResolver(3)}
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// This worker's resolver rejects everything: every cell must come
	// back as a failed record rather than bouncing forever.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerOptions{
			BaseURL: srv.URL,
			ID:      "broken",
			Resolve: func(spec string) (Model, error) {
				return Model{}, errors.New("no models here")
			},
			Poll: 10 * time.Millisecond,
		})
	}()

	got := submitSweep(t, srv.URL, SweepRequest{
		Models: []string{"fm1"}, Traces: []string{"INT01"}, Branches: []int{100},
		NoAggregates: true,
	})
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if len(got) != 1 || !got[0].Failed() {
		t.Fatalf("want one failed record, got %+v", got)
	}
	if !strings.Contains(got[0].Err, "resolving model") {
		t.Fatalf("failure does not explain itself: %q", got[0].Err)
	}
}

// TestServiceRestartLosesNoStoredCell: a coordinator keeps its lease
// queue in memory only, so a restart drops the leases it had out but
// not what its store holds. A store-backed Service closed mid-sweep,
// after one lease's results were appended, leaves those cells stored
// (and may store failures for the cells it withdrew); a new Service on
// the same store, given the same sweep, reuses every stored result
// without leasing its cell again, and the final store holds one result
// per cell.
func TestServiceRestartLosesNoStoredCell(t *testing.T) {
	store := t.TempDir() + "/dist.jsonl"
	req := SweepRequest{
		Models: []string{"fm1"}, Traces: []string{"INT01", "INT02", "MM05", "MM07", "WS03", "WS04"},
		Branches: []int{100},
	}
	serve := func() *httptest.Server {
		svc := &Service{Queue: NewLeaseQueue(time.Minute, 2, nil), Resolve: fakeResolver(3), Store: store}
		mux := http.NewServeMux()
		svc.Register(mux)
		return httptest.NewServer(mux)
	}
	// cellsRun resolves models that call ran with each cell they
	// simulate.
	cellsRun := func(ran func(string)) ModelResolver {
		return func(spec string) (Model, error) {
			m := fakeModel(spec, flat(3))
			run := m.Run
			m.Run = func(tr *trace.Trace, opt sim.Options) sim.Result {
				ran(tr.Name)
				return run(tr, opt)
			}
			return m, nil
		}
	}
	work := func(url, id string, resolve ModelResolver) (stop func() error) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- RunWorker(ctx, WorkerOptions{BaseURL: url, ID: id, Resolve: resolve, Poll: 10 * time.Millisecond})
		}()
		stop = sync.OnceValue(func() error { cancel(); return <-done })
		t.Cleanup(func() { stop() })
		return stop
	}
	successes := func() map[string]int {
		n := make(map[string]int)
		recs, _, err := ReadStoreFile(store)
		if errors.Is(err, os.ErrNotExist) {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Kind == KindCell && !r.Failed() {
				n[r.Trace]++
			}
		}
		return n
	}

	// The first coordinator's worker runs one lease and wedges on the
	// next, as if the coordinator went down while it was busy.
	srv1 := serve()
	wedge := make(chan struct{})
	var started atomic.Int32
	stop1 := work(srv1.URL, "w1", cellsRun(func(string) {
		if started.Add(1) > 2 {
			<-wedge
		}
	}))
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		resp, err := http.Post(srv1.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Closing ends the submission, then frees the wedged worker, whose
	// last post goes to a closed coordinator.
	close1 := sync.OnceFunc(func() {
		srv1.CloseClientConnections()
		srv1.Close()
		<-submitted
		close(wedge)
		stop1()
	})
	t.Cleanup(close1)
	var stored map[string]int
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if stored = successes(); len(stored) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no lease's results reached the store: %v", stored)
		}
	}
	close1()
	stored = successes()
	if len(stored) == 0 || len(stored) == len(req.Traces) {
		t.Fatalf("the closed coordinator stored %d of %d cells; want a partial sweep", len(stored), len(req.Traces))
	}

	// The restarted coordinator over the same store.
	srv2 := serve()
	t.Cleanup(srv2.Close)
	var mu sync.Mutex
	var rerun []string
	stop2 := work(srv2.URL, "w2", cellsRun(func(tr string) {
		mu.Lock()
		rerun = append(rerun, tr)
		mu.Unlock()
	}))
	appended := submitSweep(t, srv2.URL, req)
	if err := stop2(); err != nil {
		t.Fatalf("worker w2: %v", err)
	}
	for _, tr := range rerun {
		if stored[tr] > 0 {
			t.Errorf("cell %s was stored before the restart but leased again", tr)
		}
	}
	if len(rerun) != len(req.Traces)-len(stored) {
		t.Errorf("the restarted coordinator ran %v; want each of the %d unstored cells once", rerun, len(req.Traces)-len(stored))
	}
	for _, r := range appended {
		if r.Kind == KindCell && stored[r.Trace] > 0 {
			t.Errorf("resubmission appended stored cell %s again", r.Trace)
		}
	}
	final := successes()
	for _, tr := range req.Traces {
		if final[tr] != 1 {
			t.Errorf("final store holds %d results for cell %s, want 1", final[tr], tr)
		}
	}
	if len(final) != len(req.Traces) {
		t.Errorf("final store holds results for %d cells, want %d: %v", len(final), len(req.Traces), final)
	}
	recs, _, err := ReadStoreFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if _, st := Compact(recs); st.CellsOut != len(req.Traces) || st.FailedKept != 0 {
		t.Errorf("compacting the final store keeps %d cells, %d of them failed; want %d, none failed", st.CellsOut, st.FailedKept, len(req.Traces))
	}
}

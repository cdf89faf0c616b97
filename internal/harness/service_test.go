package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/predictor"
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

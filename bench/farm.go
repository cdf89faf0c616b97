package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/harness"
	"repro/internal/metrics"
)

// farmRun is a coordinator on loopback with one worker at parallelism 1,
// and a single client submitting one sweep at a time (a closed loop).
// The client and the worker each hold at most one connection.
type farmRun struct {
	e    *env
	body []byte        // the /v1/sweep request
	jobs []harness.Job // the same sweep expanded locally, for the cross-check
	base string
	reg  *metrics.Registry

	srv        *http.Server
	serveDone  chan error
	stopWorker context.CancelFunc
	workerDone chan struct{}
	client     *http.Client
	wire       *leaseTransport

	scope      atomic.Pointer[scope] // the traced rep in progress, if any
	workerErrs atomic.Int64          // transport failures that stopped the worker
	last       []harness.Record      // the latest rep's records
}

// farmLeaseTTL is long enough that a healthy worker never loses a lease.
const farmLeaseTTL = 10 * time.Second

func setupFarm(e *env) (instance, error) {
	req := harness.SweepRequest{
		Models:    []string{"tage", "gshare"},
		Traces:    generatorSpecs(e.seed, e.sz.farmSeeds),
		Scenarios: "A,C",
		Branches:  []int{e.sz.farm},
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	specs, err := harness.SelectTraces(req.Traces)
	if err != nil {
		return nil, err
	}
	jobs, _, err := expand(req.Models, specs, req.Scenarios, e.sz.farm, nil)
	if err != nil {
		return nil, err
	}
	generateAll(specs, e.sz.farm)

	f := &farmRun{e: e, body: body, jobs: jobs, reg: metrics.NewRegistry()}
	svc := &harness.Service{
		Queue:   harness.NewLeaseQueue(farmLeaseTTL, harness.DefaultLeaseBatch, f.reg),
		Resolve: repro.BenchResolver(),
		Config:  harness.Config{Metrics: f.reg},
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: mux}
	f.serveDone = make(chan error, 1)
	go func() { f.serveDone <- f.srv.Serve(ln) }()

	f.wire = &leaseTransport{base: &http.Transport{MaxConnsPerHost: 1}, farm: f}
	ctx, cancel := context.WithCancel(context.Background())
	f.stopWorker = cancel
	f.workerDone = make(chan struct{})
	go f.work(ctx)

	f.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 120 * time.Second}
	if err := f.waitHealthy(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// work runs the worker until ctx ends. A transport failure stops
// RunWorker; it is counted and the worker reconnects, so the sweep still
// finishes (its lease expires and is granted again).
func (f *farmRun) work(ctx context.Context) {
	defer close(f.workerDone)
	resolve := repro.BenchResolver()
	opt := harness.WorkerOptions{
		BaseURL: f.base,
		ID:      "bench-worker",
		Resolve: func(spec string) (harness.Model, error) {
			m, err := resolve(spec)
			if sc := f.scope.Load(); sc != nil && err == nil {
				m = tracedModel(m, sc)
			}
			return m, err
		},
		Config: harness.Config{Parallelism: 1},
		// An idle worker long-polls the coordinator and sleeps only this
		// long between polls, so it is never asleep when a rep submits.
		Poll:   time.Millisecond,
		Client: &http.Client{Transport: f.wire},
	}
	for ctx.Err() == nil {
		if err := harness.RunWorker(ctx, opt); err != nil && ctx.Err() == nil {
			f.workerErrs.Add(1)
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
}

// waitHealthy polls /healthz until the coordinator answers.
func (f *farmRun) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := f.client.Get(f.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz: %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *farmRun) rep(sc *scope) (repOut, error) {
	f.scope.Store(sc)
	defer f.scope.Store(nil)
	snap := f.reg.Snapshot()
	granted0, expired0 := snap.Value(harness.MetricLeasesGranted), snap.Value(harness.MetricLeasesExpired)
	werr0 := f.workerErrs.Load()
	f.wire.reset()

	end := sc.open("harness")
	recs, err := f.submit()
	end()
	if err != nil {
		return repOut{}, err
	}
	snap = f.reg.Snapshot()
	granted, expired := snap.Value(harness.MetricLeasesGranted)-granted0, snap.Value(harness.MetricLeasesExpired)-expired0

	out := repOut{fingerprint: fingerprint(recs), attempted: len(f.jobs)}
	cells := 0
	for _, r := range recs {
		if r.Kind == harness.KindCell {
			cells++
			if r.Failed() {
				out.failed++
			}
		}
	}
	out.failed += int(expired) + int(f.workerErrs.Load()-werr0)
	if cells != len(f.jobs) {
		out.mismatches = append(out.mismatches, fmt.Sprintf("the farm returned %d cell records for %d cells", cells, len(f.jobs)))
	}
	if sc != nil {
		out.layers = f.wire.metrics()
		out.layers.put("lease.cells_per_lease", "cells", float64(cells)/granted)
	}
	f.last = recs
	return out, nil
}

// submit posts the sweep and reads the streamed records.
func (f *farmRun) submit() ([]harness.Record, error) {
	resp, err := f.client.Post(f.base+"/v1/sweep", "application/json", bytes.NewReader(f.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("/v1/sweep: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return harness.ReadRecords(resp.Body)
}

// check compares the latest farm records with a local RunJobs of the
// same jobs.
func (f *farmRun) check() []string {
	local, err := harness.RunJobs(f.jobs, harness.Config{Parallelism: 1}, harness.Discard)
	if err != nil {
		return []string{fmt.Sprintf("local run of the farm's sweep: %v", err)}
	}
	return sameRecords("farm vs local RunJobs", local.Records, f.last)
}

func (f *farmRun) probe(metricSet) error { return nil }

func (f *farmRun) close() {
	f.stopWorker()
	<-f.workerDone
	f.srv.Close()
	<-f.serveDone
	f.client.CloseIdleConnections()
	f.wire.base.CloseIdleConnections()
}

// leaseTransport is the worker's HTTP transport. During a traced rep it
// records a lease.http span around every round trip and keeps the
// acquire and results round-trip times.
type leaseTransport struct {
	base *http.Transport
	farm *farmRun

	mu               sync.Mutex
	acquire, results []float64 // milliseconds
}

func (t *leaseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc := t.farm.scope.Load()
	if sc == nil {
		return t.base.RoundTrip(req)
	}
	_, end := sc.leaf("lease.http")
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	ms := time.Since(start).Seconds() * 1e3
	end()
	t.mu.Lock()
	switch req.URL.Path {
	case "/v1/lease":
		t.acquire = append(t.acquire, ms)
	case "/v1/results":
		t.results = append(t.results, ms)
	}
	t.mu.Unlock()
	return resp, err
}

func (t *leaseTransport) reset() {
	t.mu.Lock()
	t.acquire, t.results = nil, nil
	t.mu.Unlock()
}

// metrics reports the median and 90th percentile round trips.
func (t *leaseTransport) metrics() metricSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := metricSet{}
	for name, v := range map[string][]float64{"acquire": t.acquire, "results": t.results} {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		m.put("lease."+name+"_ms_p50", "ms", median(s))
		m.put("lease."+name+"_ms_p90", "ms", percentile(s, 0.9))
	}
	return m
}

// percentile of sorted values, by nearest rank.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(p*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

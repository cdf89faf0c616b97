package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// Service is the HTTP face of the distributed sweep coordinator
// (`bpbench serve`): spec-string sweep submission with streaming JSONL
// results on one side, the lease protocol workers speak on the other.
// Register mounts it on a mux — in `bpbench serve`, the same mux
// that serves /metrics and /debug/pprof, so a farm scrapes coordinator
// and lease telemetry at one address.
//
// Endpoints:
//
//	POST /v1/sweep            JSON SweepRequest in, JSONL records out (streamed)
//	GET  /v1/lease?worker=ID&wait=SECS   next lease as JSON, or 204 when idle
//	GET  /v1/lease?worker=ID&prefetch=1  the lease after the one the worker runs,
//	                          at once; 204 unless the worker is the only one
//	                          heard from and more than one lease is pending
//	POST /v1/renew?id=LEASE   heartbeat; 410 when the lease expired
//	POST /v1/results?id=LEASE JSONL records in; 410 when the lease expired
//	GET  /healthz             liveness probe
type Service struct {
	// Queue carries cells between sweep submissions and workers.
	Queue *LeaseQueue
	// Resolve rebuilds models from the spec strings submissions carry.
	Resolve ModelResolver
	// Store, when non-empty, is the coordinator's append-only result
	// store: each submission runs as a store-backed resume (already
	// recorded cells are reused, fresh records appended under the store
	// lock with provenance stamping) and the HTTP response streams the
	// records this submission appended. Empty keeps the coordinator
	// stateless: every submission streams its full record set.
	Store string
	// Config is the base execution config for submissions (Provenance,
	// Metrics, NoAggregates...); Scheduler is overridden per submission
	// with a LeaseScheduler over Queue.
	Config Config
	// Log, when non-nil, receives request-level diagnostics.
	Log *slog.Logger
}

// SweepRequest is the /v1/sweep submission body: the same matrix axes
// `bpbench` exposes as flags, with model specs as strings (resolved by
// the coordinator's ModelResolver).
type SweepRequest struct {
	Models    []string `json:"models"`
	Traces    []string `json:"traces,omitempty"`    // trace names, globs, or specs; empty = all
	Scenarios string   `json:"scenarios,omitempty"` // comma-separated letters; empty = "A"
	Branches  []int    `json:"branches,omitempty"`  // lengths; empty = {200000}
	DeltaLogs []int    `json:"delta_logs,omitempty"`
	Include   []string `json:"include,omitempty"`
	Exclude   []string `json:"exclude,omitempty"`
	Window    int      `json:"window,omitempty"`
	ExecDelay int      `json:"exec_delay,omitempty"`
	// NoAggregates suppresses the category/hard/suite rollup records for
	// this submission.
	NoAggregates bool `json:"no_aggregates,omitempty"`
}

// DefaultSweepBranches is the branches-per-trace length a SweepRequest
// gets when it names none — the same default as the bpbench flag.
const DefaultSweepBranches = 200000

// Register mounts the service's endpoints on mux.
func (s *Service) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/lease", s.handleLease)
	mux.HandleFunc("/v1/renew", s.handleRenew)
	mux.HandleFunc("/v1/results", s.handleResults)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
}

func (s *Service) logf(level slog.Level, format string, args ...any) {
	if s.Log != nil {
		s.Log.Log(nil, level, fmt.Sprintf(format, args...)) //nolint:staticcheck // context-free logging
	}
}

// matrix expands a SweepRequest into a Matrix via the resolver.
func (s *Service) matrix(req SweepRequest) (*Matrix, error) {
	if s.Resolve == nil {
		return nil, errors.New("harness: service has no model resolver")
	}
	if len(req.Models) == 0 {
		return nil, errors.New("harness: sweep request names no models")
	}
	models := make([]Model, 0, len(req.Models))
	seen := make(map[string]string, len(req.Models))
	for _, spec := range req.Models {
		mdl, err := s.Resolve(spec)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[mdl.Name]; dup {
			return nil, fmt.Errorf("harness: model %q duplicates %q (cell keys would collide)", spec, prev)
		}
		seen[mdl.Name] = spec
		models = append(models, mdl)
	}
	traces, err := SelectTraces(req.Traces)
	if err != nil {
		return nil, err
	}
	scenarios := req.Scenarios
	if scenarios == "" {
		scenarios = "A"
	}
	scs, err := ParseScenarios(scenarios)
	if err != nil {
		return nil, err
	}
	lengths := req.Branches
	if len(lengths) == 0 {
		lengths = []int{DefaultSweepBranches}
	}
	for _, n := range lengths {
		if n <= 0 {
			return nil, fmt.Errorf("harness: bad branch count %d", n)
		}
	}
	return &Matrix{
		Models:    models,
		Traces:    traces,
		Scenarios: scs,
		Lengths:   lengths,
		DeltaLogs: req.DeltaLogs,
		Include:   req.Include,
		Exclude:   req.Exclude,
		Window:    req.Window,
		ExecDelay: req.ExecDelay,
	}, nil
}

// flushWriter flushes the HTTP response after every write, so each
// JSONL record reaches the submitting client as its cell completes —
// the streaming contract the local -o path has by virtue of being a
// file.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a SweepRequest", http.StatusMethodNotAllowed)
		return
	}
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad sweep request: %v", err), http.StatusBadRequest)
		return
	}
	m, err := s.matrix(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	jobs, err := m.Expand()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(jobs) == 0 {
		http.Error(w, "filters matched no cells", http.StatusBadRequest)
		return
	}
	if s.Config.Metrics != nil {
		s.Config.Metrics.Counter(MetricSweepSubmissions, "Sweep submissions accepted.").Inc()
	}
	cfg := s.Config
	cfg.Scheduler = &LeaseScheduler{Queue: s.Queue, Ctx: r.Context()}
	cfg.NoAggregates = cfg.NoAggregates || req.NoAggregates

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sink := NewJSONLSink(flushWriter{w: w, f: flusher})
	s.logf(slog.LevelInfo, "harness: sweep submission: %d cells across %d models", len(jobs), len(m.Models))
	start := time.Now()
	var sum *Summary
	if s.Store != "" {
		// Store-backed: a resume against the coordinator's store, under
		// its lock (a concurrent submission against the same store fails
		// fast, exactly like two local -resume runs would). The response
		// streams what gets appended.
		sum, err = ResumeStoreFileTee(s.Store, jobs, cfg, nil, sink)
	} else {
		sum, err = RunJobs(jobs, cfg, sink)
	}
	if err != nil {
		// Headers are long gone; the stream just ends short. Log it and
		// let the client notice the truncation.
		s.logf(slog.LevelWarn, "harness: sweep failed mid-stream: %v", err)
		return
	}
	s.logf(slog.LevelInfo, "harness: sweep done: %d cells (%d failed, %d reused) in %s",
		sum.Jobs, sum.Failed, sum.Skipped, time.Since(start).Round(time.Millisecond))
}

func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		worker = "anonymous"
	}
	wait := time.Second
	if v := r.URL.Query().Get("wait"); v != "" {
		secs, err := strconv.ParseFloat(v, 64)
		if err != nil || secs < 0 || secs > 60 {
			http.Error(w, "bad wait (want seconds in [0,60])", http.StatusBadRequest)
			return
		}
		wait = time.Duration(secs * float64(time.Second))
	}
	var lease *Lease
	if r.URL.Query().Get("prefetch") == "1" {
		lease = s.Queue.Prefetch(worker)
	} else {
		lease = s.Queue.acquire(r.Context(), worker, wait, false)
	}
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(lease); err != nil {
		// The grant is out but the worker never saw it; the TTL returns
		// its cells to the queue.
		s.logf(slog.LevelWarn, "harness: writing lease %s to %s: %v", lease.ID, worker, err)
	}
}

func (s *Service) handleRenew(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing lease id", http.StatusBadRequest)
		return
	}
	if err := s.Queue.Renew(id); err != nil {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST JSONL records", http.StatusMethodNotAllowed)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing lease id", http.StatusBadRequest)
		return
	}
	recs, err := ReadRecords(r.Body)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad results body: %v", err), http.StatusBadRequest)
		return
	}
	switch err := s.Queue.Complete(id, recs); {
	case errors.Is(err, ErrLeaseGone):
		http.Error(w, err.Error(), http.StatusGone)
	case err != nil:
		// Matched cells were delivered; the shortfall was requeued.
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

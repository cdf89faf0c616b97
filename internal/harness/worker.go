package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"
)

// WorkerOptions configures RunWorker, the pull loop a `bpbench work`
// process runs against a coordinator.
type WorkerOptions struct {
	// BaseURL is the coordinator address, e.g. "http://host:9090".
	BaseURL string
	// ID labels this worker in leases and coordinator metrics. Empty
	// defaults to hostname-pid.
	ID string
	// Resolve rebuilds models from the spec strings leases carry.
	Resolve ModelResolver
	// Config executes leased jobs — the same pooled in-process
	// engine a local run uses (Parallelism, predictor pool, trace
	// cache, warm cache, worker-local Metrics all apply). Scheduler and
	// Provenance are ignored: the coordinator stamps provenance when it
	// appends.
	Config Config
	// Poll is the sleep between empty lease polls (default 500ms); the
	// coordinator additionally long-polls each request.
	Poll time.Duration
	// Client overrides http.DefaultClient.
	Client *http.Client
	// Log, when non-nil, receives per-lease diagnostics.
	Log *slog.Logger
}

// RunWorker pulls job leases from a coordinator, executes them with the
// in-process engine, and streams the records back, until ctx is
// cancelled (which returns nil) or the coordinator becomes unusable.
// While a lease executes, a heartbeat goroutine renews it at a third of
// its TTL, so only a dead or wedged worker lets a lease expire.
func RunWorker(ctx context.Context, opt WorkerOptions) error {
	if opt.BaseURL == "" {
		return fmt.Errorf("harness: worker needs a coordinator BaseURL")
	}
	if opt.Resolve == nil {
		return fmt.Errorf("harness: worker needs a model resolver")
	}
	base := strings.TrimRight(opt.BaseURL, "/")
	if opt.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		opt.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opt.Poll <= 0 {
		opt.Poll = 500 * time.Millisecond
	}
	client := opt.Client
	if client == nil {
		client = http.DefaultClient
	}
	log := opt.Log
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}

	leaseURL := fmt.Sprintf("%s/v1/lease?worker=%s&wait=2", base, url.QueryEscape(opt.ID))
	for {
		if ctx.Err() != nil {
			return nil
		}
		lease, err := fetchLease(ctx, client, leaseURL)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("harness: acquiring lease: %w", err)
		}
		if lease == nil { // queue idle
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(opt.Poll):
			}
			continue
		}
		if err := runLease(ctx, client, base, lease, opt, log); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
	}
}

// fetchLease asks the coordinator for work. A 204 returns (nil, nil).
func fetchLease(ctx context.Context, client *http.Client, leaseURL string) (*Lease, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, leaseURL, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var lease Lease
		if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
			return nil, fmt.Errorf("decoding lease: %w", err)
		}
		return &lease, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("coordinator returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
}

// runLease executes one lease end to end: convert the wire jobs back
// into runnable Jobs, heartbeat while the engine runs, and post the
// records (one per wire job, lease order) back to the coordinator.
func runLease(ctx context.Context, client *http.Client, base string, lease *Lease, opt WorkerOptions, log *slog.Logger) error {
	log.Debug("lease acquired", "id", lease.ID, "cells", len(lease.Jobs))

	// Wire jobs that fail to resolve (unknown spec, unknown trace)
	// still produce a record — a failed cell the coordinator can
	// deliver — so a misconfigured worker surfaces errors instead of
	// bouncing the same lease between expiry and re-grant forever.
	results := make([]Record, len(lease.Jobs))
	filled := make([]bool, len(lease.Jobs))
	var jobs []Job
	var jobSlot []int // jobs[i] fills results[jobSlot[i]]
	for i, wj := range lease.Jobs {
		j, err := wj.Job(opt.Resolve)
		if err != nil {
			log.Warn("lease job unresolvable", "id", lease.ID, "key", wj.Key(), "err", err)
			results[i] = wireFailedRecord(wj, err)
			filled[i] = true
			continue
		}
		jobs = append(jobs, j)
		jobSlot = append(jobSlot, i)
	}

	// Heartbeat at a third of the TTL until execution finishes. A
	// renewal rejection means the coordinator already expired us;
	// abandon the lease (its cells are requeued) rather than racing a
	// re-grant.
	ttl := time.Duration(lease.TTLSeconds * float64(time.Second))
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	expired := make(chan struct{})
	go func() {
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				if err := renewLease(hbCtx, client, base, lease.ID); err != nil {
					if hbCtx.Err() == nil {
						log.Warn("lease renewal failed", "id", lease.ID, "err", err)
						close(expired)
					}
					return
				}
			}
		}
	}()

	cfg := opt.Config
	cfg.Scheduler = nil  // leased cells always run on the local pool
	cfg.Provenance = nil // the coordinator stamps on append
	if len(jobs) > 0 {
		recs := executeJobs(jobs, cfg, newRunMetrics(cfg.Metrics), func(Record) {})
		for i, r := range recs {
			results[jobSlot[i]] = r
			filled[jobSlot[i]] = true
		}
	}
	stopHB()

	select {
	case <-expired:
		log.Warn("lease expired mid-run, dropping results", "id", lease.ID)
		return nil
	default:
	}
	for i, ok := range filled {
		if !ok { // engine returned short — shouldn't happen, but never post holes
			results[i] = wireFailedRecord(lease.Jobs[i], fmt.Errorf("harness: worker produced no record"))
		}
	}
	return postResults(ctx, client, base, lease.ID, results, log)
}

func renewLease(ctx context.Context, client *http.Client, base, id string) error {
	u := fmt.Sprintf("%s/v1/renew?id=%s", base, url.QueryEscape(id))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("renew returned %s", resp.Status)
	}
	return nil
}

// postResults streams the lease's records back as JSONL. A 410 (lease
// expired while we raced the post) is logged and swallowed: the
// coordinator has already requeued the cells.
func postResults(ctx context.Context, client *http.Client, base, id string, recs []Record, log *slog.Logger) error {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, r := range recs {
		if err := sink.Emit(r); err != nil {
			return fmt.Errorf("harness: encoding results: %w", err)
		}
	}
	u := fmt.Sprintf("%s/v1/results?id=%s", base, url.QueryEscape(id))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("harness: posting results: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	switch resp.StatusCode {
	case http.StatusNoContent:
		log.Debug("lease completed", "id", id, "records", len(recs))
		return nil
	case http.StatusGone:
		log.Warn("lease expired before results landed", "id", id)
		return nil
	default:
		return fmt.Errorf("harness: results rejected (%s): %s", resp.Status, strings.TrimSpace(string(body)))
	}
}

package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
// process runs against a coordinator. How far the lease wire overlaps
// the simulation is fixed, not an option: one lease fetched ahead and
// one results post in flight (see RunWorker).
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
	// coordinator additionally long-polls each request. It is also the
	// first pause before retrying a failed long poll (longPollAttempts).
	Poll time.Duration
	// Client overrides http.DefaultClient. The worker has one lease
	// request or results post outstanding at a time (heartbeats
	// aside), so a client held to one connection still overlaps the
	// wire with the simulation.
	Client *http.Client
	// Log, when non-nil, receives per-lease diagnostics.
	Log *slog.Logger
}

// A worker retries a failed long poll (a coordinator not yet listening,
// or restarting) after a pause that starts at WorkerOptions.Poll and
// doubles up to longPollBackoffCap, and gives up with the last error
// after longPollAttempts failures in a row. A long poll that succeeds
// resets the count.
const (
	longPollAttempts   = 6
	longPollBackoffCap = 8 * time.Second
)

// RunWorker pulls job leases from a coordinator, executes them with the
// in-process engine, and streams the records back, until ctx is
// cancelled (which returns nil) or the coordinator becomes unusable:
// its long poll failed longPollAttempts times in a row, or it refused
// a results post.
//
// The lease wire overlaps the simulation. While a lease runs, the
// worker asks for the next one without waiting (a prefetch), and it
// posts a finished lease's results while the next lease runs. The
// coordinator grants a prefetch only to a worker it has heard from
// alone within a TTL, and never the last pending lease (see
// LeaseQueue.Prefetch): with several workers at work, none is granted
// a lease ahead, and each overlaps only its posts. A worker holds at
// most one lease it has not started and has at most one results post
// in flight, and it asks for a lease only once the previous post has
// landed, so on a single connection a lease request never waits behind
// a post. Every lease it holds, started or not, is heartbeated at a
// third of its TTL from its grant, so only a dead or wedged worker lets
// a lease expire; a lease lost before it started is dropped unrun. A
// failed prefetch only leaves the worker to ask again when its lease
// ends. RunWorker returns only after its last post has ended. A failed
// post is its error, returned once the lease that ran meanwhile has
// been posted too, so no finished lease is thrown away.
func RunWorker(ctx context.Context, opt WorkerOptions) error {
	if opt.BaseURL == "" {
		return fmt.Errorf("harness: worker needs a coordinator BaseURL")
	}
	if opt.Resolve == nil {
		return fmt.Errorf("harness: worker needs a model resolver")
	}
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
	if opt.Client == nil {
		opt.Client = http.DefaultClient
	}
	if opt.Log == nil {
		opt.Log = slog.New(slog.DiscardHandler)
	}
	// The pooled runners outlive each lease, so consecutive leases of a
	// model reuse its warmed predictors instead of rebuilding them.
	w := &worker{ctx: ctx, opt: opt, base: strings.TrimRight(opt.BaseURL, "/"), pool: &runnerPool{}}
	leaseURL := fmt.Sprintf("%s/v1/lease?worker=%s", w.base, url.QueryEscape(opt.ID))

	var (
		next    *heldLease // fetched ahead, not started
		posting chan error // the results post in flight
		// failures counts the long polls failed in a row; pause is the
		// wait before the next retry.
		failures int
		pause    = opt.Poll
	)
	defer func() {
		if next != nil {
			next.stop()
		}
		landed(posting)
	}()
	// fail ends the loop: cancellation is a clean stop, anything else
	// means the coordinator is unusable.
	fail := func(err error) error {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	for ctx.Err() == nil {
		cur := next
		next = nil
		if cur == nil {
			// Nothing fetched ahead: once the last post has landed, ask
			// again, long-polling the coordinator.
			err := landed(posting)
			posting = nil
			if err != nil {
				return fail(err)
			}
			if cur, err = w.fetch(leaseURL + "&wait=2"); err != nil {
				if failures++; failures == longPollAttempts || ctx.Err() != nil {
					return fail(err)
				}
				opt.Log.Warn("asking for a lease failed; retrying", "err", err, "after", pause, "failures", failures)
				select {
				case <-ctx.Done():
				case <-time.After(pause):
				}
				pause = min(2*pause, longPollBackoffCap)
				continue
			}
			failures, pause = 0, opt.Poll
			if cur == nil { // queue idle
				select {
				case <-ctx.Done():
				case <-time.After(opt.Poll):
				}
				continue
			}
		}
		select {
		case <-cur.expired: // fetched ahead and lost while it waited
			cur.stop()
			continue
		default:
		}
		// Once the previous post has landed, fetch the next lease while
		// this one runs. A failed fetch only leaves next nil: the long
		// poll above reports a coordinator that is really down. The
		// goroutine sets next before it sends.
		prev := posting
		posted := make(chan error, 1)
		go func() {
			err := landed(prev)
			if err == nil {
				var ferr error
				if next, ferr = w.fetch(leaseURL + "&wait=0&prefetch=1"); ferr != nil && ctx.Err() == nil {
					opt.Log.Warn("fetching the next lease ahead failed", "err", ferr)
				}
			}
			posted <- err
		}()
		recs := w.run(cur)
		err := <-posted
		posting = nil
		if err != nil {
			// Nothing was fetched after the failed post. Post what this
			// lease finished before giving up on the coordinator.
			if recs != nil {
				err = errors.Join(err, w.post(cur, recs))
			}
			return fail(err)
		}
		if recs != nil {
			posting = make(chan error, 1)
			go func(ch chan<- error) { ch <- w.post(cur, recs) }(posting)
		}
	}
	return nil
}

// landed waits for a results post to end and returns its error; a nil
// channel (no post) has nothing to wait for.
func landed(posting chan error) error {
	if posting == nil {
		return nil
	}
	return <-posting
}

// worker is one RunWorker loop's state.
type worker struct {
	ctx  context.Context
	opt  WorkerOptions
	base string
	pool *runnerPool
}

// heldLease is a granted lease, renewed at a third of its TTL until
// stop. expired closes when a renewal is refused: the coordinator has
// requeued the lease's cells.
type heldLease struct {
	*Lease
	expired chan struct{}
	stop    func() // ends the heartbeat and waits for it
}

// fetch asks the coordinator for work and starts heartbeating what it
// grants. A 204 (no work) returns (nil, nil).
func (w *worker) fetch(leaseURL string) (*heldLease, error) {
	lease, err := fetchLease(w.ctx, w.opt.Client, leaseURL)
	if err != nil || lease == nil {
		if err != nil {
			err = fmt.Errorf("harness: acquiring lease: %w", err)
		}
		return nil, err
	}
	w.opt.Log.Debug("lease acquired", "id", lease.ID, "cells", len(lease.Jobs))
	// A renewal rejection means the coordinator already expired the
	// lease; it is abandoned (its cells are requeued) rather than racing
	// a re-grant. A TTL too short to divide into a heartbeat interval is
	// treated like a missing one.
	ttl := time.Duration(lease.TTLSeconds * float64(time.Second))
	if ttl/3 <= 0 {
		ttl = DefaultLeaseTTL
	}
	hbCtx, cancel := context.WithCancel(w.ctx)
	done := make(chan struct{})
	l := &heldLease{Lease: lease, expired: make(chan struct{}), stop: func() { cancel(); <-done }}
	go func() {
		defer close(done)
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				if err := renewLease(hbCtx, w.opt.Client, w.base, lease.ID); err != nil {
					if hbCtx.Err() == nil {
						w.opt.Log.Warn("lease renewal failed", "id", lease.ID, "err", err)
						close(l.expired)
					}
					return
				}
			}
		}
	}()
	return l, nil
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

// run executes a held lease and ends its heartbeat, returning one record
// per wire job in lease order, or nil when the lease expired before it
// finished (its cells are requeued, so its records would be refused).
func (w *worker) run(l *heldLease) []Record {
	// Wire jobs that fail to resolve (unknown spec, unknown trace)
	// still produce a record — a failed cell the coordinator can
	// deliver — so a misconfigured worker surfaces errors instead of
	// bouncing the same lease between expiry and re-grant forever.
	results := make([]Record, len(l.Jobs))
	filled := make([]bool, len(l.Jobs))
	var jobs []Job
	var jobSlot []int // jobs[i] fills results[jobSlot[i]]
	for i, wj := range l.Jobs {
		j, err := wj.Job(w.opt.Resolve)
		if err != nil {
			w.opt.Log.Warn("lease job unresolvable", "id", l.ID, "key", wj.Key(), "err", err)
			results[i] = wireFailedRecord(wj, err)
			filled[i] = true
			continue
		}
		jobs = append(jobs, j)
		jobSlot = append(jobSlot, i)
	}

	cfg := w.opt.Config
	cfg.Scheduler = nil  // leased cells always run on the local pool
	cfg.Provenance = nil // the coordinator stamps on append
	if len(jobs) > 0 {
		recs := executeJobs(jobs, cfg, newRunMetrics(cfg.Metrics), w.pool, func(Record) {})
		for i, r := range recs {
			results[jobSlot[i]] = r
			filled[jobSlot[i]] = true
		}
	}
	l.stop()

	select {
	case <-l.expired:
		w.opt.Log.Warn("lease expired mid-run, dropping results", "id", l.ID)
		return nil
	default:
	}
	for i, ok := range filled {
		if !ok { // engine returned short — shouldn't happen, but never post holes
			results[i] = wireFailedRecord(l.Jobs[i], fmt.Errorf("harness: worker produced no record"))
		}
	}
	return results
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

// post streams a lease's records back as JSONL. A 410 (lease expired
// while we raced the post) is logged and swallowed: the coordinator has
// already requeued the cells.
func (w *worker) post(l *heldLease, recs []Record) error {
	id, log := l.ID, w.opt.Log
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, r := range recs {
		if err := sink.Emit(r); err != nil {
			return fmt.Errorf("harness: encoding results: %w", err)
		}
	}
	u := fmt.Sprintf("%s/v1/results?id=%s", w.base, url.QueryEscape(id))
	req, err := http.NewRequestWithContext(w.ctx, http.MethodPost, u, &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := w.opt.Client.Do(req)
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

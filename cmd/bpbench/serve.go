// Distributed sweep subcommands:
//
//	bpbench serve -addr :9090 -store results/dist.jsonl
//	bpbench work -connect http://coordinator:9090
//	bpbench merge a.jsonl b.jsonl -o merged.jsonl
//
// `serve` runs the coordinator: it accepts sweep submissions (POST a
// JSON body to /v1/sweep), shards the expanded matrix into TTL'd job
// leases that `work` processes pull over HTTP, and streams the records
// back to the submitter as JSONL — appending them to -store first when
// one is set. /metrics and /debug/pprof ride on the same address, with
// lease activity labelled per worker. `merge` unions partial stores
// from separate runs into one canonical store.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/metrics"
)

// runServe implements `bpbench serve`. When stop is non-nil (tests),
// the server shuts down when it closes; otherwise SIGINT/SIGTERM stop
// it.
func runServe(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("bpbench serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":9090", "address to serve the sweep API, /metrics and /debug/pprof on")
		store      = fs.String("store", "", "append-only JSONL result store: submissions resume against it and append new records under its lock")
		leaseTTL   = fs.Duration("lease-ttl", 0, "job lease time-to-live; an unrenewed lease requeues its cells (default 30s)")
		leaseBatch = fs.Int("lease-batch", 0, "cells per lease (default 4)")
	)
	verbose, quiet := cli.Verbosity(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log := cli.NewLogger(stderr, *verbose, *quiet)
	if fs.NArg() > 0 {
		log.Error(fmt.Sprintf("bpbench: serve: unexpected arguments %q", fs.Args()))
		return 2
	}

	// One registry serves /metrics, the lease queue and every
	// submission's run telemetry.
	reg := metrics.NewRegistry()
	queue := harness.NewLeaseQueue(*leaseTTL, *leaseBatch, reg)
	prov := harness.CurrentProvenance()
	svc := &harness.Service{
		Queue:   queue,
		Resolve: repro.BenchResolver(),
		Store:   *store,
		Config:  repro.BenchConfig{Provenance: &prov, Metrics: reg, Log: log},
		Log:     log,
	}
	mux := telemetryMux(reg)
	svc.Register(mux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: serve: %v", err))
		return 2
	}
	srv := &http.Server{Handler: mux}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	log.Info(fmt.Sprintf("bpbench: serving sweeps, /metrics and /debug/pprof on http://%s", ln.Addr()))
	if *store != "" {
		log.Info(fmt.Sprintf("bpbench: appending results to store %s", *store))
	}

	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		select {
		case <-sig:
		case err := <-done:
			log.Error(fmt.Sprintf("bpbench: serve: %v", err))
			return 2
		}
	} else {
		select {
		case <-stop:
		case err := <-done:
			log.Error(fmt.Sprintf("bpbench: serve: %v", err))
			return 2
		}
	}
	srv.Close()
	return 0
}

// telemetryMux serves reg in Prometheus text-exposition format on
// /metrics, plus the standard runtime profiling endpoints under
// /debug/pprof/ — everything a scraper or `go tool pprof` needs to
// watch a live sweep or a farm process.
func telemetryMux(reg *metrics.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// runWork implements `bpbench work -connect addr`. When ctx is nil
// (the real CLI), SIGINT/SIGTERM cancel the worker; tests pass their
// own context.
func runWork(args []string, stdout, stderr io.Writer, ctx context.Context) int {
	fs := flag.NewFlagSet("bpbench work", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		connect     = fs.String("connect", "", "coordinator base URL, e.g. http://host:9090 (required)")
		id          = fs.String("id", "", "worker id reported in leases and coordinator metrics (default: hostname-pid)")
		parallel    = fs.Int("parallelism", 0, "max concurrent jobs (default: NumCPU)")
		poll        = fs.Duration("poll", 500*time.Millisecond, "sleep between empty lease polls")
		metricsAddr = fs.String("metrics-addr", "", "serve this worker's own /metrics and /debug/pprof on this address")
		noCache     = fs.Bool("notracecache", false, "regenerate the trace for every job instead of sharing per (trace, length)")
	)
	verbose, quiet := cli.Verbosity(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log := cli.NewLogger(stderr, *verbose, *quiet)
	if fs.NArg() > 0 {
		log.Error(fmt.Sprintf("bpbench: work: unexpected arguments %q", fs.Args()))
		return 2
	}
	if *connect == "" {
		log.Error("bpbench: work: -connect is required (the coordinator's base URL)")
		return 2
	}

	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Error(fmt.Sprintf("bpbench: work: -metrics-addr: %v", err))
			return 2
		}
		srv := &http.Server{Handler: telemetryMux(reg)}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		log.Info(fmt.Sprintf("bpbench: serving /metrics and /debug/pprof on http://%s", ln.Addr()))
	}

	if ctx == nil {
		var cancel context.CancelFunc
		ctx, cancel = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
	}
	log.Info(fmt.Sprintf("bpbench: worker pulling leases from %s", *connect))
	err := harness.RunWorker(ctx, harness.WorkerOptions{
		BaseURL: *connect,
		ID:      *id,
		Resolve: repro.BenchResolver(),
		Config: repro.BenchConfig{
			Parallelism:  *parallel,
			NoTraceCache: *noCache,
			Metrics:      reg,
		},
		Poll: *poll,
		Log:  log,
	})
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: work: %v", err))
		return 2
	}
	log.Info("bpbench: worker stopped")
	return 0
}

// runMerge implements `bpbench merge a.jsonl b.jsonl [-o out.jsonl]`:
// union partial result stores (argument order = newest last) into one
// canonical store with a single recomputed aggregate set, refusing
// stores that disagree about a cell. Without -o the merged store goes
// to stdout as JSONL.
func runMerge(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bpbench merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outPath := fs.String("o", "", "write the merged store here instead of stdout")
	verbose, quiet := cli.Verbosity(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Accept flags before, between or after the store paths, like diff.
	var paths []string
	for fs.NArg() > 0 {
		paths = append(paths, fs.Arg(0))
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return 2
		}
	}
	log := cli.NewLogger(stderr, *verbose, *quiet)
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "usage: bpbench merge [-o out.jsonl] a.jsonl b.jsonl ...")
		return 2
	}

	stores := make([][]harness.Record, 0, len(paths))
	for _, p := range paths {
		recs, _, err := harness.ReadStoreFile(p)
		if err != nil {
			log.Error(fmt.Sprintf("bpbench: %v", err))
			return 2
		}
		stores = append(stores, recs)
	}
	out, stats, err := harness.MergeStores(stores...)
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}
	log.Info(fmt.Sprintf("bpbench: merge: %d records in across %d stores, %d out; %d distinct cells (%d still failed), %d aggregates recomputed",
		stats.In, len(paths), stats.Out, stats.CellsOut, stats.FailedKept, stats.AggregatesOut))

	var w io.Writer = stdout
	var cleanup func(err error) error
	if *outPath != "" {
		tmp := *outPath + ".merge.tmp"
		f, err := os.Create(tmp)
		if err != nil {
			log.Error(fmt.Sprintf("bpbench: %v", err))
			return 2
		}
		w = f
		cleanup = func(err error) error {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err == nil {
				err = os.Rename(tmp, *outPath)
			}
			if err != nil {
				os.Remove(tmp)
			}
			return err
		}
	}
	sink, err := repro.NewBenchSink("jsonl", w)
	if err == nil {
		for _, r := range out {
			if err = sink.Emit(r); err != nil {
				break
			}
		}
	}
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if cleanup != nil {
		err = cleanup(err)
	}
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}
	return 0
}

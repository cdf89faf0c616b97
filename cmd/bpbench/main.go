// Command bpbench sweeps a declarative experiment matrix — models ×
// traces × update scenarii × trace lengths — on a worker pool
// and streams per-cell plus aggregate records to a table, JSONL or CSV
// sink. A saved JSONL run doubles as a baseline for regression diffing:
//
//	bpbench -models tage,gshare -scenarios A,C -traces 'INT*' -format jsonl
//	bpbench -models 'tage:tables=9,hist=6:500' -scenarios I,A,B,C
//	bpbench -models 'tage:tables=13' -sweep tables=9:13   # design-space axis
//	bpbench -models tage -delta -4:3 -resume fig9.jsonl   # Figure 9 sweep
//	bpbench -models tage -perf   # branches/sec table on stderr
//	bpbench -metrics-addr :9090 -progress   # live /metrics + pprof + ETA line
//	bpbench compact store.jsonl -dry-run   # store lifecycle maintenance
//	bpbench compact store.jsonl -prune-drift   # drop cells from other SHAs
//	bpbench diff -provenance old.jsonl new.jsonl -tolerance 0.05
//	bpbench serve -addr :9090 -store dist.jsonl   # distributed sweep coordinator
//	bpbench work -connect http://host:9090   # pull worker for a coordinator
//	bpbench merge a.jsonl b.jsonl -o out.jsonl   # union partial result stores
//	bpbench -list
//
// -models accepts model specs — named models ("tage-lsc") or any
// parameterised configuration ("gshare:log=20",
// "composed:tage+ium+lsc,tables=10") — and every cell key and store
// record carries the canonical spec string, so an arbitrary point of the
// design space is as resumable and diffable as the named nine. -sweep
// expands one spec field across a value range ("tables=9:13" or
// "hist=6:500,6:2000"), turning a predictor parameter into a matrix
// axis — the Figure 5-style history/table-count studies.
//
// -delta makes storage budget a matrix axis: each (scalable) model is
// swept across 2^deltaLog budgets, one cell per budget. -resume treats a
// JSONL file as an append-only result store: cells already present (with
// no error) are skipped, failed and missing cells run, and only the new
// records are appended — an interrupted sweep continues instead of
// restarting, and re-running a completed sweep executes nothing. The
// store is held under an advisory lock while a resume appends, so a
// concurrent resume of the same store fails fast instead of interleaving.
//
// Every record a run writes is stamped with provenance (git SHA, dirty
// flag, Go version, schema version); resuming a store whose reused cells
// were recorded under a different revision warns about the drift, and
// `bpbench compact` rewrites a long-lived store down to its canonical
// records — one per cell key, newest success wins, stale aggregate sets
// replaced — without changing what any reader observes.
//
// In diff mode the exit status is non-zero when any cell's MPKI
// regressed beyond the tolerance (or a cell newly fails), making bpbench
// a drop-in CI gate for predictor changes; -provenance adds a column
// saying which revision produced each moved cell.
//
// Observability: -metrics-addr serves the run's telemetry registry in
// Prometheus text-exposition format on /metrics plus net/http/pprof
// under /debug/pprof/ for the duration of the sweep; -progress renders
// a periodic one-line report (cells done/total, branches/sec, ETA) to
// stderr from the same registry. -cpuprofile/-memprofile write
// runtime/pprof profiles on exit. Diagnostics go through a levelled
// stderr logger: -quiet keeps only errors, -v adds debug detail.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "diff" {
		return runDiff(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "compact" {
		return runCompact(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], stdout, stderr, nil)
	}
	if len(args) > 0 && args[0] == "work" {
		return runWork(args[1:], stdout, stderr, nil)
	}
	if len(args) > 0 && args[0] == "merge" {
		return runMerge(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelList   = fs.String("models", "tage", "comma-separated model specs: named models or kind:key=value,... configurations (see -list)")
		sweep       = fs.String("sweep", "", "expand a spec field into a matrix axis: key=lo:hi (inclusive int range) or key=v1,v2,..., applied to every -models spec")
		scenarios   = fs.String("scenarios", "A", "comma-separated update scenarii: I, A, B, C")
		traces      = fs.String("traces", "", "comma-separated workloads: benchmark names/globs, generator specs like 'phased:period=4096#1', or 'file:path.bpt' (default: all 40 benchmarks)")
		traceSweep  = fs.String("trace-sweep", "", "expand a workload-spec field into a matrix axis: key=lo:hi (inclusive int range) or key=v1,v2,..., applied to every -traces generator spec")
		branches    = fs.String("branches", "200000", "comma-separated branches-per-trace lengths")
		delta       = fs.String("delta", "", "storage-budget axis: deltaLog range 'lo:hi' (inclusive) or comma list, e.g. '-4:3' (scalable models only)")
		resume      = fs.String("resume", "", "append-only JSONL result store: skip cells already present, append only the missing ones")
		include     = fs.String("include", "", "comma-separated cell globs to keep (model/trace/scenario/branches)")
		exclude     = fs.String("exclude", "", "comma-separated cell globs to drop")
		format      = fs.String("format", "table", "output format: table, jsonl or csv")
		outPath     = fs.String("o", "", "write records to this file instead of stdout")
		parallel    = fs.Int("parallelism", 0, "max concurrent jobs (default: NumCPU)")
		window      = fs.Int("window", 0, "in-flight branch window (default 24)")
		execDelay   = fs.Int("execdelay", 0, "fetch-to-execute distance in branches (default 6)")
		warmCache   = fs.Bool("warm-cache", false, "checkpoint every cell into a store-adjacent blob cache (derived from -resume or -o: path + \".ckpt/\") and warm-start matching cells from it on repeat runs")
		warmDir     = fs.String("warm-cache-dir", "", "blob cache directory for -warm-cache (overrides the derived location; implies -warm-cache)")
		ckEvery     = fs.Uint64("checkpoint-every", 0, "periodic checkpoint interval in branches for -warm-cache (default 1000000)")
		noCache     = fs.Bool("notracecache", false, "regenerate the trace for every job instead of sharing per (trace, length)")
		noAgg       = fs.Bool("noaggregates", false, "suppress category/hard/suite rollup records")
		perf        = fs.Bool("perf", false, "print a simulator-throughput (branches/sec) table to stderr after the run")
		list        = fs.Bool("list", false, "list models and traces, then exit")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. :9090) for the duration of the run")
		progress    = fs.Bool("progress", false, "render a periodic one-line progress report (cells done/total, branches/sec, ETA) to stderr")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file on exit")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	verbose, quiet := cli.Verbosity(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log := cli.NewLogger(stderr, *verbose, *quiet)
	if fs.NArg() > 0 {
		log.Error(fmt.Sprintf("bpbench: unexpected arguments %q (did you mean 'bpbench diff'?)", fs.Args()))
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, "models: ", strings.Join(repro.ModelNames(), " "))
		fmt.Fprintln(stdout, "spec kinds: ", strings.Join(models.Kinds(), " "), " (e.g. 'tage:tables=9,hist=6:500', 'composed:tage+ium+lsc')")
		fmt.Fprintln(stdout, "scalable (-delta): ", strings.Join(models.ScalableNames(), " "), " plus every kind: spec")
		fmt.Fprintln(stdout, "traces: ", strings.Join(repro.TraceNames(), " "))
		fmt.Fprintln(stdout, "workload kinds (-traces specs):")
		for _, l := range workload.KindSummaries() {
			fmt.Fprintln(stdout, "  "+l)
		}
		return 0
	}

	if *window < 0 || *execDelay < 0 {
		log.Error("bpbench: -window and -execdelay must be non-negative (0 = default)")
		return 2
	}
	lengths, err := parseLengths(*branches)
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}
	deltas, err := parseDeltas(*delta)
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}

	// Profiles are written when run returns, clean exit or not, so an
	// interrupted-by-error invocation still yields its samples.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Error(fmt.Sprintf("bpbench: %v", err))
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			log.Error(fmt.Sprintf("bpbench: -cpuprofile: %v", err))
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			log.Debug(fmt.Sprintf("bpbench: wrote CPU profile to %s", *cpuprofile))
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Error(fmt.Sprintf("bpbench: -memprofile: %v", err))
				return
			}
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Error(fmt.Sprintf("bpbench: -memprofile: %v", err))
			}
			f.Close()
			log.Debug(fmt.Sprintf("bpbench: wrote heap profile to %s", *memprofile))
		}()
	}

	// Telemetry: one registry feeds the harness, the /metrics endpoint
	// and the progress line alike. Created only when something will read
	// it — a nil registry keeps the instrumented paths at zero overhead.
	var reg *metrics.Registry
	if *metricsAddr != "" || *progress {
		reg = metrics.NewRegistry()
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Error(fmt.Sprintf("bpbench: -metrics-addr: %v", err))
			return 2
		}
		srv := &http.Server{Handler: telemetryMux(reg)}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		log.Info(fmt.Sprintf("bpbench: serving /metrics and /debug/pprof on http://%s", ln.Addr()))
	}
	if *progress {
		defer harness.StartProgress(stderr, reg, 0)()
	}

	// Spec-aware split: commas separate models only where a new spec
	// starts, so multi-field specs ride in one -models value.
	modelSpecs := models.SplitList(*modelList)
	if *sweep != "" {
		key, values, err := parseSweep(*sweep, "-sweep", models.FieldSweepsAsRange)
		if err != nil {
			log.Error(fmt.Sprintf("bpbench: %v", err))
			return 2
		}
		if modelSpecs, err = models.SweepSpecs(modelSpecs, key, values); err != nil {
			log.Error(fmt.Sprintf("bpbench: %v", err))
			return 2
		}
	}
	// Same spec-aware split on the trace axis: commas inside a generator
	// spec's field list stay part of that spec.
	tracePatterns := workload.SplitPatterns(*traces)
	if *traceSweep != "" {
		if len(tracePatterns) == 0 {
			log.Error("bpbench: -trace-sweep rewrites generator specs; name at least one with -traces (e.g. -traces 'phased:' -trace-sweep period=1024,8192)")
			return 2
		}
		key, values, err := parseSweep(*traceSweep, "-trace-sweep", workload.FieldSweepsAsRange)
		if err != nil {
			log.Error(fmt.Sprintf("bpbench: %v", err))
			return 2
		}
		if tracePatterns, err = workload.SweepSpecs(tracePatterns, key, values); err != nil {
			log.Error(fmt.Sprintf("bpbench: %v", err))
			return 2
		}
	}
	m, err := repro.NewBenchMatrix(modelSpecs, tracePatterns, *scenarios, lengths)
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}
	m.Include = splitList(*include)
	m.Exclude = splitList(*exclude)
	m.Window = *window
	m.ExecDelay = *execDelay
	m.DeltaLogs = deltas

	// Every record bpbench writes — stdout, -o file, or resume store —
	// is stamped with the revision that produced it, so saved runs stay
	// interpretable after the predictor changes underneath them.
	prov := harness.CurrentProvenance()
	cfg := repro.BenchConfig{Parallelism: *parallel, NoTraceCache: *noCache, NoAggregates: *noAgg, Provenance: &prov, Metrics: reg}
	if *warmDir != "" {
		*warmCache = true
	}
	if *warmCache {
		dir := *warmDir
		if dir == "" {
			switch {
			case *resume != "":
				dir = harness.WarmCacheDir(*resume)
			case *outPath != "":
				dir = harness.WarmCacheDir(*outPath)
			default:
				log.Error("bpbench: -warm-cache derives its blob directory from -resume or -o; set one, or pass -warm-cache-dir")
				return 2
			}
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Error(fmt.Sprintf("bpbench: -warm-cache: %v", err))
			return 2
		}
		if reg == nil {
			// The hit/miss counters live on a registry; the summary line
			// below needs one even when nothing else scrapes it.
			reg = metrics.NewRegistry()
		}
		cfg.WarmCache = dir
		cfg.CheckpointEvery = *ckEvery
		cfg.Metrics = reg
		defer func() {
			// A counter the run never advanced has no sample and reads 0.
			snap := reg.Snapshot()
			hits, _ := snap.Sample(harness.MetricWarmCacheHits)
			misses, _ := snap.Sample(harness.MetricWarmCacheMisses)
			log.Info(fmt.Sprintf("bpbench: warm cache %s: %d hits, %d misses", dir, uint64(hits.Value), uint64(misses.Value)))
		}()
	}
	if *resume != "" {
		// The store is the output: format and destination are fixed.
		if *outPath != "" {
			log.Error("bpbench: -resume writes to the store file; drop -o")
			return 2
		}
		if *format != "table" && *format != "jsonl" {
			log.Error("bpbench: -resume stores records as jsonl; drop -format")
			return 2
		}
		return runResume(m, cfg, *resume, *perf, stderr, log)
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Error(fmt.Sprintf("bpbench: %v", err))
			return 2
		}
		defer f.Close()
		out = f
	}
	sink, err := repro.NewBenchSink(*format, out)
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}

	log.Debug(fmt.Sprintf("bpbench: sweeping %d model spec(s) in %s format", len(modelSpecs), *format))
	sum, err := repro.RunBench(m, cfg, sink)
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}
	if sum.Jobs == 0 {
		log.Error("bpbench: filters matched no cells")
		return 2
	}
	if *perf {
		// Telemetry, not data: stderr, so it never corrupts a JSONL/CSV
		// stream on stdout.
		harness.RenderPerf(stderr, harness.PerfRows(sum.Records))
	}
	if sum.Failed > 0 {
		log.Error(fmt.Sprintf("bpbench: %d of %d jobs failed", sum.Failed, sum.Jobs))
		return 1
	}
	return 0
}

// runResume implements `bpbench -resume store.jsonl`: plan the grid
// against the store's existing records, execute only the missing or
// failed cells, and append the new records. A missing store file starts
// a fresh one; a crash tail (truncated final line from a killed run) is
// dropped and overwritten, so a store survives kill -9 mid-write.
func runResume(m *repro.BenchMatrix, cfg repro.BenchConfig, path string, perf bool, stderr io.Writer, log *slog.Logger) int {
	jobs, err := m.Expand()
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}
	if len(jobs) == 0 {
		log.Error("bpbench: filters matched no cells")
		return 2
	}
	sum, err := harness.ResumeStoreFile(path, jobs, cfg, func(plan *harness.ResumePlan) error {
		// Drift is a warning, not a refusal: reusing the cells is the
		// point of -resume, but the store now mixes revisions and
		// cross-cell comparisons should say so (bpbench compact + a
		// fresh sweep resets).
		if n := len(plan.ProvenanceDrift); n > 0 {
			log.Warn(fmt.Sprintf("bpbench: warning: %d reused cells carry provenance that may not match HEAD:", n))
			for i, w := range plan.ProvenanceDrift {
				if i == 3 {
					log.Warn(fmt.Sprintf("bpbench:   ... and %d more", n-i))
					break
				}
				log.Warn(fmt.Sprintf("bpbench:   %s", w))
			}
		}
		return nil
	})
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}
	log.Info(fmt.Sprintf("bpbench: resume %s: reused %d of %d cells, ran %d",
		path, sum.Skipped, sum.Jobs, sum.Jobs-sum.Skipped))
	if perf {
		// The merged cell set, not the appended records: reused cells
		// carry their preserved telemetry, so the table covers the whole
		// grid even when the store was complete and nothing ran.
		harness.RenderPerf(stderr, harness.PerfRows(sum.Merged))
	}
	if sum.Failed > 0 {
		log.Error(fmt.Sprintf("bpbench: %d of %d jobs failed", sum.Failed, sum.Jobs-sum.Skipped))
		return 1
	}
	return 0
}

// runCompact implements `bpbench compact store.jsonl [-o out.jsonl]
// [-dry-run]`: rewrite an append-only result store down to its canonical
// records (one per cell key, newest success wins, stale aggregate sets
// replaced by one recomputed set) and report what was dropped. Without
// -o the store is rewritten in place, atomically (write-then-rename), so
// a crash mid-compact never loses the original. The reader tolerates a
// crash tail the same way -resume does, so compacting a store whose last
// writer was killed mid-line works (and drops the torn tail).
func runCompact(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bpbench compact", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		outPath    = fs.String("o", "", "write the compacted store here instead of rewriting the input in place")
		dryRun     = fs.Bool("dry-run", false, "report what compaction would keep and drop without writing anything")
		pruneDrift = fs.Bool("prune-drift", false, "additionally drop cells recorded under a different git SHA than HEAD, so a resume re-measures them")
	)
	verbose, quiet := cli.Verbosity(fs)
	usage := func() int {
		fmt.Fprintln(stderr, "usage: bpbench compact [-o out.jsonl] [-dry-run] [-prune-drift] store.jsonl")
		return 2
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		return usage()
	}
	store := fs.Arg(0)
	// Accept flags after the store path too (`compact store.jsonl -dry-run`).
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return usage()
	}
	log := cli.NewLogger(stderr, *verbose, *quiet)

	recs, _, err := harness.ReadStoreFile(store)
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}
	opts := harness.CompactOpts{}
	if *pruneDrift {
		opts.PruneDrift = true
		opts.Head = harness.CurrentProvenance()
		if opts.Head.GitSHA == "" {
			log.Error("bpbench: -prune-drift needs a git HEAD to prune against, and none was found")
			return 2
		}
	}
	out, stats := harness.CompactWith(recs, opts)
	// The recomputed aggregate set can be larger than what the store held
	// (a crash tore through the final aggregate block): account drops and
	// repairs separately so neither count can ever print negative.
	staleAggs, restored := stats.AggregatesIn-stats.AggregatesOut, 0
	if staleAggs < 0 {
		staleAggs, restored = 0, -staleAggs
	}
	repair := ""
	if restored > 0 {
		repair = fmt.Sprintf("; %d aggregate records restored by recompute", restored)
	}
	drift := ""
	if *pruneDrift {
		drift = fmt.Sprintf(", %d drifted cells (other git SHA than %s)", stats.DriftDropped, opts.Head.Short())
	}
	log.Info(fmt.Sprintf(
		"bpbench: compact %s: %d records in, %d out (%d dropped: %d superseded failures, %d duplicate cells, %d stale aggregates%s%s); %d distinct cells (%d still failed), aggregates %d -> %d",
		store, stats.In, stats.Out, stats.SupersededFailed+stats.DuplicateCells+staleAggs+stats.DriftDropped,
		stats.SupersededFailed, stats.DuplicateCells, staleAggs, repair, drift,
		stats.CellsOut, stats.FailedKept, stats.AggregatesIn, stats.AggregatesOut))
	if prov := harness.StoreProvenance(recs); len(prov) > 1 {
		log.Info(fmt.Sprintf("bpbench: note: store spans %d revisions", len(prov)))
	}
	if *dryRun {
		return 0
	}

	dest := *outPath
	if dest == "" {
		dest = store
	}
	tmp := dest + ".compact.tmp"
	f, err := os.Create(tmp)
	if err != nil {
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}
	sink, err := repro.NewBenchSink("jsonl", f)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}
	for _, r := range out {
		if err == nil {
			err = sink.Emit(r)
		}
	}
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, dest)
	}
	if err != nil {
		os.Remove(tmp)
		log.Error(fmt.Sprintf("bpbench: %v", err))
		return 2
	}
	return 0
}

// runDiff implements `bpbench diff old.jsonl new.jsonl`.
func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bpbench diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tolerance  = fs.Float64("tolerance", 0.02, "relative MPKI increase tolerated before a cell counts as a regression")
		absFloor   = fs.Float64("absfloor", 0.005, "absolute MPKI delta below which a cell never regresses")
		provenance = fs.Bool("provenance", false, "show which git revision produced each side and each moved cell")
	)
	verbose, quiet := cli.Verbosity(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Accept flags before or after the two store paths (`bpbench diff
	// old.jsonl new.jsonl -tolerance 0.05`): flag.Parse stops at the
	// first positional, so consume positionals one at a time and
	// re-parse what follows.
	var paths []string
	for fs.NArg() > 0 && len(paths) < 2 {
		paths = append(paths, fs.Arg(0))
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return 2
		}
	}
	log := cli.NewLogger(stderr, *verbose, *quiet)
	if len(paths) != 2 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: bpbench diff [-tolerance t] [-absfloor a] [-provenance] old.jsonl new.jsonl")
		return 2
	}
	// An explicit `-tolerance 0` / `-absfloor 0` means strict exact
	// matching, which the library expresses as a negative value (its
	// zero value selects the defaults).
	opt := harness.DiffOptions{Tolerance: *tolerance, AbsFloor: *absFloor}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "tolerance" && opt.Tolerance == 0 {
			opt.Tolerance = -1
		}
		if f.Name == "absfloor" && opt.AbsFloor == 0 {
			opt.AbsFloor = -1
		}
	})
	var sides [2][]harness.Record
	for i, p := range paths {
		recs, err := harness.ReadRecordsFile(p)
		if err != nil {
			log.Error(fmt.Sprintf("bpbench: %v", err))
			return 2
		}
		sides[i] = recs
	}
	rep := harness.Diff(sides[0], sides[1], opt)
	rep.ShowProvenance = *provenance
	rep.Render(stdout)
	if rep.Cells == 0 {
		// A baseline that parses to nothing (truncated file, disjoint
		// matrices) must not make the gate pass vacuously.
		log.Error("bpbench: no overlapping cells between baseline and new run")
		return 2
	}
	if rep.HasRegressions() {
		return 1
	}
	return 0
}

// splitList splits a comma-separated flag, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseSweep parses a sweep axis (-sweep for model specs, -trace-sweep
// for workload specs): "key=lo:hi" (an inclusive integer range, for
// fields the relevant registry — via rangeOK — declares
// integer-valued) or "key=v1,v2,..." (verbatim values — the form for
// fields whose values themselves contain ':', like hist=6:500,6:2000).
func parseSweep(s, flagName string, rangeOK func(string) bool) (key string, values []string, err error) {
	key, rest, ok := strings.Cut(s, "=")
	key = strings.TrimSpace(key)
	if !ok || key == "" || strings.TrimSpace(rest) == "" {
		return "", nil, fmt.Errorf("bad %s %q (want key=lo:hi or key=v1,v2,...)", flagName, s)
	}
	parts := splitList(rest)
	if len(parts) == 1 && strings.Contains(parts[0], ":") && rangeOK(key) {
		ns, err := parseRange(parts[0], flagName)
		if err != nil {
			return "", nil, err
		}
		for _, n := range ns {
			values = append(values, strconv.Itoa(n))
		}
		return key, values, nil
	}
	return key, parts, nil
}

// parseDeltas parses the -delta axis: an inclusive "lo:hi" deltaLog
// range or a comma-separated list; empty means no budget sweep.
func parseDeltas(s string) ([]int, error) {
	switch s = strings.TrimSpace(s); {
	case s == "":
		return nil, nil
	case strings.Contains(s, ":"):
		return parseRange(s, "-delta")
	}
	var out []int
	for _, p := range splitList(s) {
		d, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad -delta value %q", p)
		}
		out = append(out, d)
	}
	return out, nil
}

// parseRange expands a flag's inclusive integer range "lo:hi".
func parseRange(s, flagName string) ([]int, error) {
	lo, hi, _ := strings.Cut(s, ":")
	l, err1 := strconv.Atoi(strings.TrimSpace(lo))
	h, err2 := strconv.Atoi(strings.TrimSpace(hi))
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("bad %s range %q (want integers lo:hi, e.g. 9:13 or -4:3)", flagName, s)
	}
	if l > h {
		return nil, fmt.Errorf("bad %s range %q: lo %d > hi %d", flagName, s, l, h)
	}
	out := make([]int, 0, h-l+1)
	for n := l; n <= h; n++ {
		out = append(out, n)
	}
	return out, nil
}

// parseLengths parses the -branches axis.
func parseLengths(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad branch count %q", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -branches list")
	}
	return out, nil
}

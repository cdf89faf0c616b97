package repro

import (
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/models"
)

// The batch-experiment harness (internal/harness) exposed through the
// facade: declare a matrix of models × traces × scenarios × trace
// lengths, execute it on a worker pool, stream records to a
// sink, and diff runs against a JSONL baseline. cmd/bpbench is a thin
// wrapper over these entry points.
type (
	// BenchMatrix declares an experiment grid.
	BenchMatrix = harness.Matrix
	// BenchModel is a model as the harness runs it.
	BenchModel = harness.Model
	// BenchConfig controls matrix execution (parallelism, caching).
	BenchConfig = harness.Config
	// BenchRecord is the streaming result unit (one cell or aggregate).
	BenchRecord = harness.Record
	// BenchSummary is the outcome of a matrix run.
	BenchSummary = harness.Summary
	// BenchSink consumes records as they stream out of a run.
	BenchSink = harness.Sink
	// BenchDiffOptions tunes baseline regression detection.
	BenchDiffOptions = harness.DiffOptions
	// BenchDiffReport summarises a baseline comparison.
	BenchDiffReport = harness.DiffReport
	// BenchPerfRow is one line of the simulator-throughput summary.
	BenchPerfRow = harness.PerfRow
	// BenchJob is one expanded cell of a matrix.
	BenchJob = harness.Job
	// BenchResumePlan partitions an expanded grid against a prior store.
	BenchResumePlan = harness.ResumePlan
	// BenchProvenance records which code produced a store record (git
	// SHA, dirty flag, toolchain, schema version).
	BenchProvenance = harness.Provenance
	// BenchCompactStats reports what a store compaction kept and dropped.
	BenchCompactStats = harness.CompactStats
	// BenchCompactOpts tunes compaction (drift pruning against a head
	// provenance).
	BenchCompactOpts = harness.CompactOpts
)

// BenchWarmCacheDir is the conventional checkpoint blob directory for
// a result store: the store path plus ".ckpt" (what BenchConfig's
// WarmCache field conventionally points at).
func BenchWarmCacheDir(storePath string) string { return harness.WarmCacheDir(storePath) }

// BenchWarmCacheStats reads the warm-cache hit/miss counters off a
// registry a run was executed with (both zero before any warm-cache
// run, or on a nil registry).
func BenchWarmCacheStats(reg *MetricsRegistry) (hits, misses uint64) {
	if reg == nil {
		return 0, 0
	}
	s := reg.Snapshot()
	if smp, ok := s.Sample(harness.MetricWarmCacheHits); ok {
		hits = uint64(smp.Value)
	}
	if smp, ok := s.Sample(harness.MetricWarmCacheMisses); ok {
		misses = uint64(smp.Value)
	}
	return hits, misses
}

// ParseScenario maps a scenario flag value ("I", "A", "B", "C", case
// insensitive) to its Scenario; it is the single flag→Scenario mapping
// shared by bpsim and bpbench.
func ParseScenario(s string) (Scenario, error) {
	scs, err := harness.ParseScenarios(s)
	if err != nil {
		return 0, err
	}
	if len(scs) != 1 {
		return 0, fmt.Errorf("repro: want exactly one scenario, got %q", s)
	}
	return scs[0], nil
}

// ParseScenarios maps a comma-separated scenario list ("A,C") to
// scenarii, rejecting duplicates and unknown letters.
func ParseScenarios(csv string) ([]Scenario, error) {
	return harness.ParseScenarios(csv)
}

// BenchModels resolves model identifiers — named models or arbitrary
// specs — to harness models through internal/models, the resolver farm
// workers use too. Resolving builds no predictor, and each model is
// named by its canonical spec (for the named models, exactly the
// identifier), so every cell key and store record says which
// configuration produced it. Two identifiers with one canonical form
// would collide on cell keys and are refused.
func BenchModels(names []string) ([]BenchModel, error) {
	out := make([]BenchModel, 0, len(names))
	seen := make(map[string]string, len(names))
	for _, name := range names {
		m, err := models.Resolve(name)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[m.Name]; dup {
			return nil, fmt.Errorf("repro: model %q duplicates %q (both canonicalise to %q); cell keys would collide", name, prev, m.Name)
		}
		seen[m.Name] = name
		out = append(out, m)
	}
	return out, nil
}

// NewBenchMatrix assembles a matrix from CLI-shaped inputs: model
// identifiers, trace-name globs (empty = all 40), a comma-separated
// scenario list, and branches-per-trace lengths.
func NewBenchMatrix(models, traceGlobs []string, scenarios string, lengths []int) (*BenchMatrix, error) {
	ms, err := BenchModels(models)
	if err != nil {
		return nil, err
	}
	specs, err := harness.SelectTraces(traceGlobs)
	if err != nil {
		return nil, err
	}
	scs, err := harness.ParseScenarios(scenarios)
	if err != nil {
		return nil, err
	}
	if len(lengths) == 0 {
		return nil, fmt.Errorf("repro: bench matrix needs at least one trace length")
	}
	return &BenchMatrix{Models: ms, Traces: specs, Scenarios: scs, Lengths: lengths}, nil
}

// NewBenchSink constructs a sink by format name: "table", "jsonl", "csv".
func NewBenchSink(format string, w io.Writer) (BenchSink, error) {
	return harness.NewSink(format, w)
}

// RunBench expands the matrix and executes it on the worker pool,
// streaming records to sink in deterministic order.
func RunBench(m *BenchMatrix, cfg BenchConfig, sink BenchSink) (*BenchSummary, error) {
	return harness.Run(m, cfg, sink)
}

// ExpandBench materialises the matrix into its job list (the resume path
// plans against this expansion before running).
func ExpandBench(m *BenchMatrix) ([]BenchJob, error) {
	return m.Expand()
}

// RunBenchResumeStore runs the whole store-backed resume sequence
// against the JSONL store at path: read (missing file = fresh store,
// crash tail dropped and truncated), plan with cfg.Provenance as the
// drift baseline, refuse on pipeline-config conflicts, execute the
// missing cells and append their records. onPlan, when non-nil, sees
// the plan before anything runs — surface ProvenanceDrift warnings
// there, or veto with an error. Both `bpbench -resume` and the
// experiments' ResultStore path are thin wrappers over this.
func RunBenchResumeStore(path string, jobs []BenchJob, cfg BenchConfig, onPlan func(*BenchResumePlan) error) (*BenchSummary, error) {
	return harness.ResumeStoreFile(path, jobs, cfg, onPlan)
}

// ReadBenchRecords parses a JSONL record stream (a saved bench run).
func ReadBenchRecords(r io.Reader) ([]BenchRecord, error) {
	return harness.ReadRecords(r)
}

// ReadBenchRecordsFile reads a saved JSONL run (a baseline or an
// append-only result store) from disk.
func ReadBenchRecordsFile(path string) ([]BenchRecord, error) {
	return harness.ReadRecordsFile(path)
}

// ReadBenchStoreFile reads a resume store, tolerating a crash tail (a
// truncated final line from an interrupted run): it returns the parsed
// records and the byte length of the valid prefix the caller should
// truncate to before appending.
func ReadBenchStoreFile(path string) ([]BenchRecord, int64, error) {
	return harness.ReadStoreFile(path)
}

// CompactStore rewrites a store's records down to their canonical form:
// one record per cell key in expansion order (newest success wins; a
// never-succeeded key keeps its newest failure so resumes retry it),
// stale aggregate sets replaced by a single set recomputed over the
// surviving cells. Canonical records are preserved verbatim, so
// resuming, diffing or perf-rendering the compacted store behaves
// exactly like the original. cmd/bpbench's `compact` subcommand is a
// thin wrapper over this.
func CompactStore(recs []BenchRecord) ([]BenchRecord, BenchCompactStats) {
	return harness.Compact(recs)
}

// CompactStoreWith is CompactStore with options: PruneDrift additionally
// drops cells recorded under a different git SHA than opts.Head (the
// `bpbench compact -prune-drift` maintenance pass), so a subsequent
// resume re-measures them at HEAD.
func CompactStoreWith(recs []BenchRecord, opts BenchCompactOpts) ([]BenchRecord, BenchCompactStats) {
	return harness.CompactWith(recs, opts)
}

// StoreProvenance lists the distinct provenance blocks present in a
// store, in first-appearance order; records written before provenance
// stamping contribute a single zero block. One element means the whole
// store came from one revision.
func StoreProvenance(recs []BenchRecord) []BenchProvenance {
	return harness.StoreProvenance(recs)
}

// CurrentProvenance is the provenance block a run started now would
// stamp onto its records: HEAD's git SHA and dirty state (when a
// repository is reachable), the Go toolchain, and the store schema
// version.
func CurrentProvenance() BenchProvenance {
	return harness.CurrentProvenance()
}

// BenchDiff compares a fresh run against a baseline, cell by cell on
// MPKI, flagging movements beyond the tolerance.
func BenchDiff(old, new []BenchRecord, opt BenchDiffOptions) *BenchDiffReport {
	return harness.Diff(old, new, opt)
}

// BenchPerfRows extracts per-(model, scenario, length) simulator
// throughput telemetry (branches/sec) from a record stream.
func BenchPerfRows(records []BenchRecord) []BenchPerfRow {
	return harness.PerfRows(records)
}

// RenderBenchPerf writes the human-readable throughput table.
func RenderBenchPerf(w io.Writer, rows []BenchPerfRow) {
	harness.RenderPerf(w, rows)
}

// BenchDiffFiles diffs two saved JSONL runs by path.
func BenchDiffFiles(oldPath, newPath string, opt BenchDiffOptions) (*BenchDiffReport, error) {
	old, err := harness.ReadRecordsFile(oldPath)
	if err != nil {
		return nil, err
	}
	new, err := harness.ReadRecordsFile(newPath)
	if err != nil {
		return nil, err
	}
	return harness.Diff(old, new, opt), nil
}

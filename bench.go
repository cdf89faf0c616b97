package repro

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/harness"
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

// LookupModel resolves a model identifier — a named model or any model
// spec (see ParseSpec) — to a fresh Model, with an error naming the valid
// identifiers and spec kinds on a miss. It is sugar over the ModelSpec
// lifecycle: ParseSpec then Build.
func LookupModel(name string) (*Model, error) {
	spec, err := ParseSpec(name)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

// ModelNames lists the model identifiers in sorted order.
func ModelNames() []string {
	var names []string
	for name := range Models() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ScalableModels maps the model identifiers that support storage-budget
// scaling (the -delta axis) to their scaled constructors; deltaLog 0 is
// each model's declared budget.
func ScalableModels() map[string]func(deltaLog int) *Model {
	return map[string]func(int) *Model{
		"tage":     ScaledTAGE,
		"tage-lsc": ScaledTAGELSC,
	}
}

// ScalableModelNames lists the identifiers usable with a deltaLog axis,
// sorted.
func ScalableModelNames() []string {
	var names []string
	for name := range ScalableModels() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BenchModels resolves model identifiers — named models or arbitrary
// specs — to harness models. Resolving builds no predictor: names and
// storage budgets come from the configurations, and each cell executed
// for the model runs a cold predictor. The harness name (and therefore
// every cell key and store record) is the canonical spec string, which
// for the named models is exactly the identifier, so pre-spec baselines
// keep their keys; the canonical spec also rides along in
// BenchModel.Spec so records say which configuration produced them.
// Scalable specs (see ModelSpec.CanScale) carry the Scale hook the
// deltaLog axis expands through, implemented as spec rewriting: the
// scaled variant is spec.WithDelta(d) rebuilt.
func BenchModels(names []string) ([]BenchModel, error) {
	out := make([]BenchModel, 0, len(names))
	seen := make(map[string]string, len(names))
	for _, name := range names {
		spec, err := ParseSpec(name)
		if err != nil {
			return nil, err
		}
		canon := spec.Canonical()
		if prev, dup := seen[canon]; dup {
			return nil, fmt.Errorf("repro: model %q duplicates %q (both canonicalise to %q); cell keys would collide", name, prev, canon)
		}
		seen[canon] = name
		m, err := spec.Build()
		if err != nil {
			return nil, err
		}
		bm := BenchModel{
			Name:        canon,
			Spec:        canon,
			StorageBits: m.StorageBits(),
			Run:         m.Run,
			NewRunner:   m.NewRunner,
		}
		if spec.CanScale() {
			base := spec
			bm.Scale = func(deltaLog int) BenchModel {
				scaled, err := base.WithDelta(deltaLog)
				var sm *Model
				if err == nil {
					sm, err = scaled.Build()
				}
				if err != nil {
					// Surfaced per-cell through the harness's panic
					// isolation as a failed record, never a dead sweep
					// (the harness backfills the scaled spec string).
					return BenchModel{Run: func(tr *Trace, opt Options) Result { panic(err) }}
				}
				return BenchModel{Spec: scaled.Canonical(), StorageBits: sm.StorageBits(), Run: sm.Run, NewRunner: sm.NewRunner}
			}
		}
		out = append(out, bm)
	}
	return out, nil
}

// SplitSpecList splits a comma-separated model list the spec-aware way:
// a comma starts a new spec only when what follows looks like one (a
// named model, optionally @delta, or a "kind:" prefix); otherwise it
// continues the previous spec's field list — so one flag value can
// carry multi-field specs: "tage:tables=9,hist=6:500,gshare:log=14" is
// two specs, not three. Empty segments are dropped.
func SplitSpecList(s string) []string {
	var out []string
	for _, seg := range strings.Split(s, ",") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if len(out) > 0 && !startsSpec(seg) {
			out[len(out)-1] += "," + seg
			continue
		}
		out = append(out, seg)
	}
	return out
}

// startsSpec reports whether a comma-separated segment begins a new
// model spec rather than continuing the previous one's fields (which
// are always key=value pairs).
func startsSpec(seg string) bool {
	if kind, _, ok := strings.Cut(seg, ":"); ok {
		_, known := specKindDefs[strings.TrimSpace(kind)]
		return known
	}
	name := seg
	if at := strings.LastIndexByte(name, '@'); at >= 0 {
		name = name[:at]
	}
	_, named := Models()[strings.TrimSpace(name)]
	return named
}

// SweepSpecs expands one spec field across values for every base spec —
// the `bpbench -sweep` axis: each base is rewritten per value via
// ModelSpec.WithField and returned in canonical form, erroring on
// duplicate resulting configurations (which would collide on cell keys).
func SweepSpecs(bases []string, key string, values []string) ([]string, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("repro: sweep of %q has no values", key)
	}
	var out []string
	seen := make(map[string]bool)
	for _, b := range bases {
		spec, err := ParseSpec(b)
		if err != nil {
			return nil, err
		}
		for _, v := range values {
			sw, err := spec.WithField(key, v)
			if err != nil {
				return nil, err
			}
			c := sw.Canonical()
			if seen[c] {
				return nil, fmt.Errorf("repro: sweep %s over %q produces duplicate spec %q", key, b, c)
			}
			seen[c] = true
			out = append(out, c)
		}
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

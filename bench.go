package repro

import (
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/models"
)

// The batch-experiment harness (internal/harness) exposed through the
// facade: declare a matrix of models × traces × scenarios × trace
// lengths, execute it on a worker pool and stream records to a sink.
// The examples sweep through these entry points; the CLIs and the
// benchmark call internal/harness for the rest (resume stores, diffs,
// compaction, the farm).
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
)

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

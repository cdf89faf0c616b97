package repro

import (
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TraceNames lists the 40 synthetic benchmark traces (5 categories x 8).
func TraceNames() []string {
	specs := workload.All()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// HardTraces reports the seven deliberately hard traces of the suite
// (the Section 2.2 high-misprediction subset).
func HardTraces() map[string]bool {
	out := map[string]bool{}
	for k, v := range workload.HardNames {
		out[k] = v
	}
	return out
}

// GenerateTrace materialises `branches` branches of a workload
// deterministically. The spec may be a benchmark name ("INT01"), a
// generator spec ("phased:period=4096#1"; the README lists the kinds), or an
// external trace ("file:path.bpt"). Errors on an unknown or malformed
// spec or a non-positive branch count.
func GenerateTrace(spec string, branches int) (*Trace, error) {
	if branches <= 0 {
		return nil, fmt.Errorf("repro: branches must be positive, got %d", branches)
	}
	sp, err := workload.ResolveSpec(spec)
	if err != nil {
		return nil, err
	}
	return workload.Generate(sp, branches), nil
}

// MustGenerateTrace is GenerateTrace panicking on error — for examples
// and tests where the spec is a known-good literal.
func MustGenerateTrace(spec string, branches int) *Trace {
	tr, err := GenerateTrace(spec, branches)
	if err != nil {
		panic(err)
	}
	return tr
}

// TraceConvertStats reports what an external-trace conversion consumed
// and kept.
type TraceConvertStats = trace.ConvertStats

// ConvertTrace parses an external text trace (see TraceConvertFormats)
// into a Trace ready for WriteTrace — the `tracegen convert` engine.
func ConvertTrace(r io.Reader, format, name string) (*Trace, TraceConvertStats, error) {
	return trace.Convert(r, format, name)
}

// TraceConvertFormats lists the external trace formats ConvertTrace
// accepts.
func TraceConvertFormats() []string { return trace.ConvertFormats() }

// WriteTrace encodes a trace in the compact binary format.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.Write(w, tr) }

// ReadTrace decodes a trace written by WriteTrace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// SummarizeTrace computes summary statistics for a trace.
func SummarizeTrace(tr *Trace) trace.Stats { return trace.Summarize(tr) }

// Experiment identifiers (E1..E15) map to the paper's tables and figures;
// see ExperimentIDs and the README's experiment index.
type (
	// ExperimentReport is the paper-vs-measured outcome of one experiment.
	ExperimentReport = experiments.Report
	// ExperimentConfig scales experiment runs.
	ExperimentConfig = experiments.Config
)

// ExperimentIDs lists the available experiment identifiers in paper order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RunExperiment executes one experiment (see ExperimentIDs) and returns
// its report. ok is false for an unknown id.
func RunExperiment(id string, cfg ExperimentConfig) (ExperimentReport, bool) {
	e, found := experiments.Lookup(id)
	if !found {
		return ExperimentReport{}, false
	}
	return e.Run(cfg), true
}

// RenderReport writes a report as aligned text.
func RenderReport(w io.Writer, r ExperimentReport) { experiments.Render(w, r) }

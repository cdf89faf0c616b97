package harness

import (
	"fmt"

	"repro/internal/memarray"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Record kinds. Cell records carry one (model, trace, scenario, length)
// measurement; the aggregate kinds roll cells up per category, over the
// hard-trace subset, and over the whole suite, always within one
// (model, scenario, length) group.
const (
	KindCell     = "cell"
	KindCategory = "category"
	KindHard     = "hard"
	KindSuite    = "suite"
)

// Record is the harness's streaming result unit: a flattened, sink- and
// JSON-friendly view of one cell or aggregate. Aggregate records report
// MPKI/MPPKI as per-cell means and additionally carry the sums (the
// paper quotes suite MPPKI as a sum over the 40 traces).
type Record struct {
	Kind  string `json:"kind"`
	Model string `json:"model"`
	// Spec is the canonical model-spec string the cell's model was built
	// from (schema >= 3; on read, older records are upgraded in place by
	// filling it from the model identifier, which has always been the
	// canonical spec for named and scaled models). PlanResume refuses to
	// reuse a cell whose recorded spec disagrees with the requested one.
	Spec  string `json:"spec,omitempty"`
	Trace string `json:"trace,omitempty"`
	// TraceSpec is the resolvable trace-spec string behind Trace when
	// the two differ (schema >= 4): file-backed sources record
	// "file:<path>" here while Trace carries the content-addressed
	// "file:<hash>" identity. Empty means Trace is its own spec, which
	// holds for every named benchmark and generator spec — so records
	// from earlier schemas need no migration.
	TraceSpec string `json:"trace_spec,omitempty"`
	Category  string `json:"category,omitempty"`
	Scenario  string `json:"scenario"`
	Branches  int    `json:"branches"`
	Seed      uint64 `json:"seed,omitempty"`

	// DeltaLog and StorageBits describe the storage-budget axis: the
	// 2^deltaLog scaling applied to the model (0 outside a budget sweep —
	// the scaled model name "base@+d" is what keys the cell) and the
	// resulting predictor budget in bits, when the model reports one.
	DeltaLog    int `json:"delta_log,omitempty"`
	StorageBits int `json:"storage_bits,omitempty"`

	// Window and ExecDelay record the pipeline configuration actually
	// used, so diffs across runs with different pipeline models are
	// flagged instead of silently compared.
	Window    int `json:"window,omitempty"`
	ExecDelay int `json:"exec_delay,omitempty"`

	MPKI          float64 `json:"mpki"`
	MPPKI         float64 `json:"mppki"`
	MPKISum       float64 `json:"mpki_sum,omitempty"`
	MPPKISum      float64 `json:"mppki_sum,omitempty"`
	Mispredicts   uint64  `json:"mispredicts"`
	MicroOps      uint64  `json:"micro_ops,omitempty"`
	Misprediction float64 `json:"misprediction_rate,omitempty"`
	// Access is the cell's predictor access accounting (schema >= 5):
	// prediction and retire-time reads, effective and silent writes — the
	// counts the paper's Section 4 numbers (silent updates, writes per
	// misprediction, accesses per retired branch) are computed from. Set
	// on successful cell records only; zero (and omitted from JSON) on
	// aggregates, failed cells and cells recorded under older schemas.
	// Diff ignores it.
	Access memarray.Stats `json:"access,omitzero"`

	// Simulator-throughput telemetry: how many branches were actually
	// simulated, how long the cell took on the wall clock, and the derived
	// branches/sec. These track the speed of the simulator itself, never
	// the predictor's accuracy, and are deliberately ignored by Diff so
	// timing noise can never fail a baseline comparison. For aggregates,
	// SimBranches and ElapsedSec are sums over the group's cells and
	// BranchesPerSec is the group total branches over total time.
	SimBranches    uint64  `json:"sim_branches,omitempty"`
	ElapsedSec     float64 `json:"elapsed_sec,omitempty"`
	BranchesPerSec float64 `json:"branches_per_sec,omitempty"`

	// Cells is the number of cell records an aggregate covers.
	Cells int `json:"cells,omitempty"`
	// Err is set (and the metric fields zero) when the job panicked.
	Err string `json:"error,omitempty"`

	// Provenance says which code produced the record: git SHA, dirty
	// flag, toolchain, schema version, stamped at run time on every
	// record a run appends (see Config.Provenance). Nil on records from
	// stores written before provenance stamping existed. Like the timing
	// telemetry, it is deliberately ignored by Diff's regression logic —
	// a store is allowed to span revisions; PlanResume surfaces the
	// drift as warnings instead.
	Provenance *Provenance `json:"provenance,omitempty"`
}

// Failed reports whether the record describes a failed job.
func (r Record) Failed() bool { return r.Err != "" }

// Key returns the cell identifier used for baseline diffing. Aggregates
// use their kind plus grouping fields so they diff like cells.
func (r Record) Key() string {
	switch r.Kind {
	case KindCell, "":
		return CellKey(r.Model, r.Trace, r.Scenario, r.Branches)
	case KindCategory:
		return fmt.Sprintf("%s:%s/%s/%s/%d", r.Kind, r.Model, r.Category, r.Scenario, r.Branches)
	default:
		return fmt.Sprintf("%s:%s/%s/%d", r.Kind, r.Model, r.Scenario, r.Branches)
	}
}

// traceSpecOf extracts the Record.TraceSpec value for a workload: the
// resolvable spec string when it differs from the trace identity, else
// empty (the identity resolves itself).
func traceSpecOf(s workload.Spec) string {
	if sp := s.SpecString(); sp != s.Name {
		return sp
	}
	return ""
}

// cellRecord flattens a simulation result into a cell Record.
func cellRecord(j Job, res sim.Result) Record {
	return Record{
		Kind:           KindCell,
		Model:          j.Model.Name,
		Spec:           j.Model.Spec,
		Trace:          j.Spec.Name,
		TraceSpec:      traceSpecOf(j.Spec),
		Category:       j.Spec.Category,
		Scenario:       j.Scenario.Letter(),
		Branches:       j.Branches,
		Seed:           j.Seed,
		DeltaLog:       j.DeltaLog,
		StorageBits:    j.Model.StorageBits,
		Window:         res.Window,
		ExecDelay:      res.ExecDelay,
		MPKI:           res.MPKI,
		MPPKI:          res.MPPKI,
		Mispredicts:    res.Mispredicts,
		MicroOps:       res.MicroOps,
		Misprediction:  res.Misprediction,
		Access:         res.Access,
		SimBranches:    res.Branches,
		ElapsedSec:     res.Elapsed.Seconds(),
		BranchesPerSec: res.BranchesPerSec,
	}
}

// failedRecord tags a panicked job.
func failedRecord(j Job, err error) Record {
	return Record{
		Kind:        KindCell,
		Model:       j.Model.Name,
		Spec:        j.Model.Spec,
		Trace:       j.Spec.Name,
		TraceSpec:   traceSpecOf(j.Spec),
		Category:    j.Spec.Category,
		Scenario:    j.Scenario.Letter(),
		Branches:    j.Branches,
		Seed:        j.Seed,
		DeltaLog:    j.DeltaLog,
		StorageBits: j.Model.StorageBits,
		Err:         err.Error(),
	}
}

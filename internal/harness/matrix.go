package harness

import (
	"fmt"
	"path"
	"sort"
	"strings"

	"repro/internal/bitutil"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Model is a named predictor configuration the harness can run. Run must
// simulate a freshly-constructed predictor over the trace (cold state per
// job); internal/models resolves every predictor model to this shape.
type Model struct {
	Name string
	// Spec is the canonical model-spec string the model was built from
	// ("" for models constructed directly rather than through the spec
	// API). Records carry it, so a store can validate a resumed cell
	// against the exact configuration that produced it even after the
	// mapping from names to configurations changes.
	Spec        string
	StorageBits int
	Run         func(tr *trace.Trace, opt sim.Options) sim.Result
	// NewRunner, when non-nil, returns a reusable run function backed by
	// one pooled predictor instance: each call starts from cold state but
	// reuses the warmed allocations, byte-identical to Run. The harness
	// worker pool keeps one runner per (worker, model) so repeated cells
	// skip predictor construction; a returned runner is used from a single
	// goroutine at a time. Nil models always run through Run.
	NewRunner func() func(tr *trace.Trace, opt sim.Options) sim.Result
	// Scale, when non-nil, returns the model with every component budget
	// multiplied by 2^deltaLog (the Figure 9 protocol), Spec included. A
	// model that cannot be budget-scaled, or whose spec already carries a
	// delta, leaves it nil; expanding such a model across a DeltaLogs axis
	// is an error, not a silent skip. Expand ignores the Name the callee
	// set and renames each variant ScaledName(base, d) so cell keys follow
	// one convention harness-wide.
	Scale func(deltaLog int) Model
}

// ScaledName is the canonical name of a model variant scaled by
// 2^deltaLog: "tage@-4", "tage@+0", "tage@+3". The '@' keeps the name a
// single path segment, so cell keys stay four '/'-separated fields and
// existing glob filters keep working.
func ScaledName(base string, deltaLog int) string {
	return fmt.Sprintf("%s@%+d", base, deltaLog)
}

// Matrix declares an experiment grid. Expansion order is stable:
// models, then traces, then scenarios, then lengths — so two runs of the
// same matrix produce records in the same order.
type Matrix struct {
	Models    []Model
	Traces    []workload.Spec
	Scenarios []predictor.Scenario
	// Lengths lists branches-per-trace values (one job per length).
	Lengths []int
	// DeltaLogs is the optional storage-budget axis: each model job is
	// expanded across tage.Scale-style 2^deltaLog budgets (Figure 9).
	// Empty means no budget sweep — models run exactly as declared and
	// cell keys are unchanged, so pre-existing baselines stay valid. When
	// non-empty, every model in the matrix must have a Scale hook.
	DeltaLogs []int
	// Include and Exclude are glob filters over expanded cells. A pattern
	// containing '/' is matched (path.Match) against the full cell key
	// "model/trace/scenario/branches"; otherwise it is matched against
	// each of the four fields individually — where the model field
	// matches both the scaled variant name ("tage@+2") and its base
	// ("tage"), so a model filter keeps selecting its cells when a
	// DeltaLogs axis renames them. Empty Include means include-all;
	// Exclude wins over Include.
	Include []string
	Exclude []string
	// Window and ExecDelay configure the pipeline model. Zero selects the
	// sim defaults; negative values are rejected by Expand (the same rule
	// the bpbench flags enforce, keeping the declarative layer's
	// validation consistent with sim.Options.withDefaults, which treats
	// any non-positive value as "use the default").
	Window    int
	ExecDelay int
}

// Job is one expanded cell of the matrix.
type Job struct {
	// Index is the cell's position in expansion order; records stream in
	// this order regardless of worker scheduling.
	Index    int
	Model    Model
	Spec     workload.Spec
	Scenario predictor.Scenario
	Branches int
	// DeltaLog is the storage-budget exponent the cell's model was scaled
	// by; meaningful only when the matrix declared a DeltaLogs axis (the
	// scaled Model.Name carries it into the cell key either way).
	DeltaLog int
	// Seed is the job's deterministic seed, derived from the cell key; it
	// is recorded in the Record so any cell can be re-run in isolation.
	Seed uint64
	Opts sim.Options
}

// Key is the canonical cell identifier "model/trace/scenario/branches".
func (j Job) Key() string {
	return CellKey(j.Model.Name, j.Spec.Name, j.Scenario.Letter(), j.Branches)
}

// CellKey formats the canonical cell identifier.
func CellKey(model, trace, scenario string, branches int) string {
	return fmt.Sprintf("%s/%s/%s/%d", model, trace, scenario, branches)
}

// JobSeed derives the deterministic per-job seed from the cell key: an
// FNV-1a hash finalised with a strong mixer. The trace itself is always
// generated from the workload spec's own seed (so every model and
// scenario sees the identical branch stream); JobSeed covers any
// per-cell randomness a future axis may need and uniquely tags records.
func JobSeed(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return bitutil.Mix64(h)
}

// matchCell reports whether any of the patterns selects the cell.
func matchCell(patterns []string, j Job) bool {
	fields := []string{j.Model.Name, j.Spec.Name, j.Scenario.Letter(), fmt.Sprint(j.Branches)}
	if base, _, scaled := strings.Cut(j.Model.Name, "@"); scaled {
		fields = append(fields, base)
	}
	key := j.Key()
	for _, p := range patterns {
		if strings.ContainsRune(p, '/') {
			if ok, _ := path.Match(p, key); ok {
				return true
			}
			continue
		}
		for _, f := range fields {
			if ok, _ := path.Match(p, f); ok {
				return true
			}
		}
	}
	return false
}

// Expand materialises the matrix into its job list, applying filters.
// It returns an error when the grid is structurally empty (a missing
// axis), as opposed to filtered down to nothing (which yields an empty,
// non-error job list).
func (m *Matrix) Expand() ([]Job, error) {
	for _, patterns := range [][]string{m.Include, m.Exclude} {
		for _, p := range patterns {
			if _, err := path.Match(p, "probe"); err != nil {
				return nil, fmt.Errorf("harness: bad cell pattern %q: %w", p, err)
			}
		}
	}
	if m.Window < 0 || m.ExecDelay < 0 {
		return nil, fmt.Errorf("harness: negative Window/ExecDelay (%d/%d); zero selects the defaults", m.Window, m.ExecDelay)
	}
	if len(m.Models) == 0 {
		return nil, fmt.Errorf("harness: matrix has no models")
	}
	if len(m.Traces) == 0 {
		return nil, fmt.Errorf("harness: matrix has no traces")
	}
	if len(m.Scenarios) == 0 {
		return nil, fmt.Errorf("harness: matrix has no scenarios")
	}
	lengths := m.Lengths
	if len(lengths) == 0 {
		return nil, fmt.Errorf("harness: matrix has no trace lengths")
	}
	variants, err := m.modelVariants()
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for _, v := range variants {
		for _, spec := range m.Traces {
			for _, sc := range m.Scenarios {
				for _, n := range lengths {
					j := Job{
						Model:    v.model,
						Spec:     spec,
						Scenario: sc,
						Branches: n,
						DeltaLog: v.deltaLog,
						Opts:     sim.Options{Scenario: sc, Window: m.Window, ExecDelay: m.ExecDelay},
					}
					if len(m.Include) > 0 && !matchCell(m.Include, j) {
						continue
					}
					if matchCell(m.Exclude, j) {
						continue
					}
					j.Index = len(jobs)
					j.Seed = JobSeed(j.Key())
					jobs = append(jobs, j)
				}
			}
		}
	}
	return jobs, nil
}

// modelVariant is one model after budget expansion.
type modelVariant struct {
	model    Model
	deltaLog int
}

// modelVariants expands the model axis across DeltaLogs. With no delta
// axis each model passes through untouched (names, and therefore cell
// keys, identical to a pre-axis matrix); with one, each scalable model
// yields one renamed variant per deltaLog, budget curve contiguous in
// expansion order.
func (m *Matrix) modelVariants() ([]modelVariant, error) {
	if len(m.DeltaLogs) == 0 {
		out := make([]modelVariant, len(m.Models))
		for i, mdl := range m.Models {
			out[i] = modelVariant{model: mdl}
		}
		return out, nil
	}
	seen := make(map[int]bool, len(m.DeltaLogs))
	for _, d := range m.DeltaLogs {
		if seen[d] {
			return nil, fmt.Errorf("harness: duplicate deltaLog %+d in matrix (would duplicate cell keys)", d)
		}
		seen[d] = true
	}
	var out []modelVariant
	for _, mdl := range m.Models {
		if mdl.Scale == nil {
			if strings.Contains(mdl.Spec, "@") {
				// The spec already has the delta suffix ScaledName writes.
				return nil, fmt.Errorf("harness: model %q already carries a storage delta; drop it or the deltaLog axis", mdl.Name)
			}
			return nil, fmt.Errorf("harness: model %q does not support budget scaling (no Scale hook) but the matrix declares a deltaLog axis", mdl.Name)
		}
		for _, d := range m.DeltaLogs {
			scaled := mdl.Scale(d)
			scaled.Name = ScaledName(mdl.Name, d)
			if scaled.Run == nil {
				return nil, fmt.Errorf("harness: model %q scaled by %+d has no Run", mdl.Name, d)
			}
			out = append(out, modelVariant{model: scaled, deltaLog: d})
		}
	}
	return out, nil
}

// SelectTraces resolves trace patterns — benchmark-name globs
// ("INT*"), generator specs ("phased:period=4096#1"), and file-backed
// sources ("file:path.bpt") — against the suite and the spec grammar;
// see workload.Select for the matching rules.
func SelectTraces(patterns []string) ([]workload.Spec, error) {
	return workload.Select(patterns)
}

// ParseScenarios converts a comma-separated scenario list ("A,C") into
// predictor scenarii, rejecting duplicates and unknown letters.
func ParseScenarios(csv string) ([]predictor.Scenario, error) {
	var out []predictor.Scenario
	seen := make(map[predictor.Scenario]bool)
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var sc predictor.Scenario
		switch strings.ToUpper(part) {
		case "I":
			sc = predictor.ScenarioI
		case "A":
			sc = predictor.ScenarioA
		case "B":
			sc = predictor.ScenarioB
		case "C":
			sc = predictor.ScenarioC
		default:
			return nil, fmt.Errorf("harness: unknown scenario %q (want I, A, B or C)", part)
		}
		if seen[sc] {
			return nil, fmt.Errorf("harness: duplicate scenario %q", part)
		}
		seen[sc] = true
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: empty scenario list")
	}
	return out, nil
}

// SortModels orders models by name for stable matrix construction when
// the caller assembled them from an unordered source (a map).
func SortModels(ms []Model) {
	sort.Slice(ms, func(a, b int) bool { return ms[a].Name < ms[b].Name })
}

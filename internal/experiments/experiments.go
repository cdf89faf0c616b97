// Package experiments reproduces every table and figure of the paper's
// evaluation (the E1–E15 index of Registry). Each experiment returns a
// Report pairing the paper's published values with the values measured on
// this repository's synthetic benchmark suite: absolute numbers differ
// (the substrate is synthetic), the *shapes* — orderings, ratios,
// crossovers — are the reproduction targets, and each report carries the
// shape checks it is expected to satisfy.
//
// Every experiment names its predictors by model spec, resolved through
// internal/models like every other caller's, and runs them over the
// 40-trace suite as one harness matrix, so all fifteen get the pooled
// predictors, the shared trace cache, the resumable result store and the
// warm cache; every number is read from the cell records.
package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/harness"
	"repro/internal/memarray"
	"repro/internal/models"
	"repro/internal/predictor"
	"repro/internal/workload"
)

// Config controls the experiment scale.
type Config struct {
	// BranchesPerTrace sets the trace length (default 200000; full-scale
	// runs use 1000000).
	BranchesPerTrace int
	// Window and ExecDelay configure the pipeline model.
	Window    int
	ExecDelay int
	// Parallelism bounds concurrent trace simulations (default NumCPU).
	Parallelism int
	// ResultStore, when set, routes every experiment's sweep through the
	// resumable append-only result store at this path: cells already
	// present are reused, only the missing or failed ones run, and
	// appended records are stamped with provenance — so an interrupted
	// run survives and a complete one can be re-rendered for free. Empty
	// keeps the in-memory behaviour.
	ResultStore string
	// WarmCache additionally keeps a checkpoint blob cache next to the
	// store (ResultStore + ".ckpt/"): cells warm-start from their cached
	// predictor snapshots, so re-running a sweep skips simulation
	// warm-up and an interrupted long cell resumes mid-trace. Requires
	// ResultStore.
	WarmCache bool
}

func (c Config) withDefaults() Config {
	if c.BranchesPerTrace == 0 {
		c.BranchesPerTrace = 200000
	}
	if c.Window == 0 {
		c.Window = 24
	}
	if c.ExecDelay == 0 {
		c.ExecDelay = 6
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.NumCPU()
	}
	return c
}

// suiteMatrix declares models × the 40-trace suite × scenarios at the
// configured trace length and pipeline.
func (c Config) suiteMatrix(models []harness.Model, scenarios ...predictor.Scenario) *harness.Matrix {
	return &harness.Matrix{
		Models:    models,
		Traces:    workload.All(),
		Scenarios: scenarios,
		Lengths:   []int{c.BranchesPerTrace},
		Window:    c.Window,
		ExecDelay: c.ExecDelay,
	}
}

// runMatrix executes a harness matrix for an experiment and returns its
// cell records in expansion order plus any provenance-drift notes. With
// cfg.ResultStore unset it is a plain in-memory harness run; with it
// set, the sweep becomes resumable exactly like `bpbench -resume` (the
// two share harness.ResumeStoreFile): cells the store already holds are
// reused, only the rest execute, and the new records — provenance-stamped
// — are appended. The returned cells are the merged view either way, so
// callers render identical reports from a fresh run, a partial resume, or
// a complete store; reused cells recorded under a different git SHA than
// HEAD surface as notes for the report rather than vanishing silently.
func runMatrix(m *harness.Matrix, cfg Config) (cells []harness.Record, notes []string, err error) {
	hcfg := harness.Config{Parallelism: cfg.Parallelism}
	if cfg.ResultStore == "" {
		if cfg.WarmCache {
			return nil, nil, fmt.Errorf("experiments: WarmCache caches checkpoints next to the result store; set ResultStore")
		}
		hcfg.NoAggregates = true
		sum, err := harness.Run(m, hcfg, harness.Discard)
		if err != nil {
			return nil, nil, err
		}
		return sum.Merged, nil, nil
	}
	jobs, err := m.Expand()
	if err != nil {
		return nil, nil, err
	}
	prov := harness.CurrentProvenance()
	hcfg.Provenance = &prov
	if cfg.WarmCache {
		hcfg.WarmCache = harness.WarmCacheDir(cfg.ResultStore)
	}
	sum, err := harness.ResumeStoreFile(cfg.ResultStore, jobs, hcfg, func(plan *harness.ResumePlan) error {
		if n := len(plan.ProvenanceDrift); n > 0 {
			notes = append(notes, fmt.Sprintf(
				"store %s: %d reused cells carry provenance that may not match HEAD (first: %s)",
				cfg.ResultStore, n, plan.ProvenanceDrift[0]))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return sum.Merged, notes, nil
}

// suites holds an experiment's cell records per (model, scenario), each
// list in suite order — the order the paper's sums run in.
type suites map[string][]harness.Record

// of returns the cells of one model under one scenario.
func (s suites) of(model string, sc predictor.Scenario) []harness.Record {
	return s[model+"/"+sc.Letter()]
}

// mppki is one model's suite MPPKI under one scenario.
func (s suites) mppki(model string, sc predictor.Scenario) float64 {
	return totalMPPKI(s.of(model, sc))
}

// run executes an experiment's matrix and groups its cells. A failed run
// or cell fails the whole report — its rows are dropped, a failing check
// and a note say why — so no experiment ever sums a short suite; run then
// returns nil.
func (r *Report) run(m *harness.Matrix, cfg Config) suites {
	cells, notes, err := runMatrix(m, cfg)
	if err != nil {
		r.fail(err)
		return nil
	}
	s := suites{}
	for _, c := range cells {
		if c.Failed() {
			r.fail(fmt.Errorf("cell %s: %s", c.Key(), c.Err))
			return nil
		}
		k := c.Model + "/" + c.Scenario
		s[k] = append(s[k], c)
	}
	r.Notes = append(r.Notes, notes...)
	return s
}

// fail marks the report as failed by err, dropping whatever it measured.
func (r *Report) fail(err error) {
	r.Rows, r.Checks = nil, nil
	r.check("harness sweep ran", false)
	r.Notes = append(r.Notes, "sweep failed: "+err.Error())
}

// totalMPPKI sums per-trace MPPKI in suite order: the paper's suite MPPKI.
func totalMPPKI(cells []harness.Record) float64 {
	t := 0.0
	for _, c := range cells {
		t += c.MPPKI
	}
	return t
}

// accessTotals sums the cells' predictor access counters. A cell without
// counters was reused from a store written before records carried them;
// it is refused rather than summed as zeros.
func accessTotals(cells []harness.Record) (memarray.Stats, error) {
	var t memarray.Stats
	for _, c := range cells {
		if c.Access == (memarray.Stats{}) {
			return t, fmt.Errorf("cell %s carries no access counters (recorded before store schema 5); rerun it into a fresh store", c.Key())
		}
		t.Add(c.Access)
	}
	return t, nil
}

// resolve names an experiment's models by their spec strings, resolved
// through internal/models exactly as bpbench and the farm workers
// resolve them: each cell shares its key and store record with
// `bpbench -models <spec>`, and a wire job rebuilds it. The specs are
// literals, so an unresolvable one is a bug every experiment test
// catches; it panics.
func resolve(specs ...string) []harness.Model {
	out := make([]harness.Model, len(specs))
	for i, s := range specs {
		m, err := models.Resolve(s)
		if err != nil {
			panic(err)
		}
		out[i] = m
	}
	return out
}

// Row is one line of a report: a labelled paper-vs-measured pair.
type Row struct {
	Label    string
	Paper    string
	Measured string
}

// Report is the outcome of one experiment.
type Report struct {
	ID    string
	Title string
	Rows  []Row
	// Checks records the shape assertions and whether they held.
	Checks []Check
	Notes  []string
}

// Check is a named boolean shape assertion.
type Check struct {
	Name string
	Pass bool
}

// Passed reports whether every shape check held.
func (r Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

func (r *Report) check(name string, pass bool) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass})
}

func (r *Report) row(label, paper, format string, args ...any) {
	r.Rows = append(r.Rows, Row{Label: label, Paper: paper, Measured: fmt.Sprintf(format, args...)})
}

func pct(delta, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*delta/base)
}

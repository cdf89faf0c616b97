package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
	"repro/internal/memarray"
	"repro/internal/models"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestRegistryCompleteAndOrdered(t *testing.T) {
	reg := Registry()
	if len(reg) != 15 {
		t.Fatalf("registry has %d experiments, want 15", len(reg))
	}
	for i, e := range reg {
		wantID := "E" + itoa(i+1)
		if e.ID != wantID {
			t.Errorf("position %d: id %s, want %s", i, e.ID, wantID)
		}
		if e.Run == nil || e.Title == "" {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}

func TestLookupCaseInsensitive(t *testing.T) {
	for _, id := range []string{"e3", "E3", " e3 "} {
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("E16"); ok {
		t.Fatal("Lookup must reject unknown ids")
	}
}

func TestRenderFormats(t *testing.T) {
	rep := Report{ID: "EX", Title: "t"}
	rep.row("label", "1.0", "%.1f", 2.0)
	rep.check("a check", true)
	rep.check("a failing check", false)
	rep.Notes = append(rep.Notes, "a note")

	var buf bytes.Buffer
	Render(&buf, rep)
	out := buf.String()
	for _, want := range []string{"EX", "label", "paper=1.0", "measured=2.0", "[PASS]", "[FAIL]", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("text render missing %q in:\n%s", want, out)
		}
	}

	buf.Reset()
	RenderMarkdown(&buf, rep)
	out = buf.String()
	for _, want := range []string{"### EX", "| label | 1.0 | 2.0 |", "✅", "❌"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown render missing %q in:\n%s", want, out)
		}
	}
}

func TestReportPassed(t *testing.T) {
	var r Report
	if !r.Passed() {
		t.Fatal("empty report must pass")
	}
	r.check("ok", true)
	if !r.Passed() {
		t.Fatal("all-true must pass")
	}
	r.check("bad", false)
	if r.Passed() {
		t.Fatal("any-false must fail")
	}
}

// TestMakeRunnerColdStatePerTrace: every experiment cell starts from a
// cold predictor. At Parallelism 1 one worker's pooled runner carries a
// single gshare across all 40 traces; each cell must match a freshly
// constructed predictor on the same trace, and two sweeps must agree.
func TestMakeRunnerColdStatePerTrace(t *testing.T) {
	cfg := Config{BranchesPerTrace: 5000, Parallelism: 1}.withDefaults()
	model := resolve("gshare")[0]
	m := cfg.suiteMatrix([]harness.Model{model}, predictor.ScenarioA)
	a, _, err := runMatrix(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runMatrix(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := workload.All()
	if len(a) != len(specs) || len(b) != len(specs) {
		t.Fatalf("sweeps returned %d and %d cells, want %d", len(a), len(b), len(specs))
	}
	opt := sim.Options{Scenario: predictor.ScenarioA, Window: cfg.Window, ExecDelay: cfg.ExecDelay}
	for i, spec := range specs {
		fresh := model.Run(workload.Generate(spec, cfg.BranchesPerTrace), opt)
		if a[i].Trace != spec.Name || a[i].Mispredicts != fresh.Mispredicts {
			t.Fatalf("cell %d (%s): %d mispredicts, a fresh predictor on %s gives %d",
				i, a[i].Trace, a[i].Mispredicts, spec.Name, fresh.Mispredicts)
		}
		if b[i].Mispredicts != a[i].Mispredicts {
			t.Fatalf("%s: sweeps not reproducible: %d vs %d", spec.Name, a[i].Mispredicts, b[i].Mispredicts)
		}
	}
}

// TestSuiteRunnerCovers40Traces: an experiment's suite sweep yields one
// cell per benchmark, the 40 distinct traces in suite order, each
// simulated at the configured length.
func TestSuiteRunnerCovers40Traces(t *testing.T) {
	cfg := Config{BranchesPerTrace: 2000, Parallelism: 2}.withDefaults()
	var rep Report
	s := rep.run(cfg.suiteMatrix(resolve("gshare"), predictor.ScenarioA), cfg)
	if s == nil {
		t.Fatalf("sweep failed: %v", rep.Notes)
	}
	cells := s.of("gshare", predictor.ScenarioA)
	if len(cells) != 40 {
		t.Fatalf("suite has %d cells, want 40", len(cells))
	}
	seen := map[string]bool{}
	for i, spec := range workload.All() {
		c := cells[i]
		if c.Trace != spec.Name {
			t.Fatalf("cell %d is trace %s, want %s", i, c.Trace, spec.Name)
		}
		if seen[c.Trace] {
			t.Fatalf("duplicate trace %s", c.Trace)
		}
		seen[c.Trace] = true
		if c.Branches != cfg.BranchesPerTrace || c.SimBranches == 0 {
			t.Fatalf("trace %s ran %d of %d branches", c.Trace, c.SimBranches, c.Branches)
		}
	}
}

// TestExperimentsStoreRoundTrip runs E1–E15 once in memory, then twice
// into one result store. The second store pass must execute zero cells,
// and all three report sets must be identical: the access counters E1
// and E3 read survive the store, and no two experiment configurations
// share a model name (a shared name would reuse the other
// configuration's cells and move a number).
func TestExperimentsStoreRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs in -short mode")
	}
	runAll := func(cfg Config) []string {
		var reps []string
		for _, e := range Registry() {
			rep := e.Run(cfg)
			if len(rep.Rows) == 0 {
				t.Fatalf("%s measured nothing: %v", rep.ID, rep.Notes)
			}
			// Provenance-drift notes only say the tree is dirty; they are
			// not measurements.
			var notes []string
			for _, n := range rep.Notes {
				if !strings.HasPrefix(n, "store ") {
					notes = append(notes, n)
				}
			}
			rep.Notes = notes
			var buf bytes.Buffer
			Render(&buf, rep)
			reps = append(reps, buf.String())
		}
		return reps
	}
	storedCells := func(path string) int {
		recs, _, err := harness.ReadStoreFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range recs {
			if r.Kind == harness.KindCell {
				n++
			}
		}
		return n
	}

	cfg := Config{BranchesPerTrace: 1500, Parallelism: 2}
	mem := runAll(cfg)
	cfg.ResultStore = filepath.Join(t.TempDir(), "store.jsonl")
	first := runAll(cfg)
	cells := storedCells(cfg.ResultStore)
	second := runAll(cfg)
	if got := storedCells(cfg.ResultStore); got != cells {
		t.Fatalf("second store pass executed %d cells, want 0", got-cells)
	}
	for i := range mem {
		if mem[i] != first[i] || mem[i] != second[i] {
			t.Fatalf("report differs between the in-memory and store runs:\nmemory:\n%s\nfirst:\n%s\nsecond:\n%s",
				mem[i], first[i], second[i])
		}
	}
}

// TestAccessExperimentsRefusePreSchema5Cells: cells from a store written
// before records carried access counters (schema < 5) must fail E1 and
// E3 loudly instead of rendering zero writes and accesses.
func TestAccessExperimentsRefusePreSchema5Cells(t *testing.T) {
	cfg := Config{BranchesPerTrace: 500, Parallelism: 2, ResultStore: filepath.Join(t.TempDir(), "store.jsonl")}
	accessExperiments := []func(Config) Report{E1, E3}
	for _, run := range accessExperiments {
		if rep := run(cfg); len(rep.Rows) == 0 {
			t.Fatalf("%s measured nothing: %v", rep.ID, rep.Notes)
		}
	}
	recs, _, err := harness.ReadStoreFile(cfg.ResultStore)
	if err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	enc := json.NewEncoder(&old)
	for _, r := range recs {
		r.Access = memarray.Stats{}
		if r.Provenance != nil {
			p := *r.Provenance
			p.Schema = 4
			r.Provenance = &p
		}
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(cfg.ResultStore, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, run := range accessExperiments {
		rep := run(cfg)
		if rep.Passed() || len(rep.Rows) != 0 || !strings.Contains(strings.Join(rep.Notes, " "), "no access counters") {
			t.Fatalf("%s rendered cells without access counters: %+v", rep.ID, rep)
		}
	}
}

func TestPct(t *testing.T) {
	if pct(5, 100) != "+5.0%" {
		t.Fatalf("pct = %s", pct(5, 100))
	}
	if pct(-5, 100) != "-5.0%" {
		t.Fatalf("pct = %s", pct(-5, 100))
	}
	if pct(1, 0) != "n/a" {
		t.Fatal("division by zero must be guarded")
	}
}

// TestE15Fast is an end-to-end experiment smoke test at tiny scale.
func TestE15Fast(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	rep := E15(Config{BranchesPerTrace: 20000})
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	if rep.ID != "E15" {
		t.Fatalf("id = %s", rep.ID)
	}
}

// TestRunMatrixResultStore covers the store path E11 runs through when
// Config.ResultStore is set: the first invocation executes the grid and
// persists provenance-stamped records; a second invocation reuses every
// cell (zero simulator runs) and reassembles the identical record stream
// from the store.
func TestRunMatrixResultStore(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	var runs atomic.Int64
	model := harness.Model{Name: "m", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
		runs.Add(1)
		return sim.Result{
			Trace: tr.Name, Category: tr.Category,
			Window: sim.DefaultWindow, ExecDelay: sim.DefaultExecDelay,
			Branches: uint64(len(tr.Branches)), MPKI: 2, MPPKI: 40,
		}
	}}
	specs, err := workload.Select([]string{"INT01", "INT02"})
	if err != nil {
		t.Fatal(err)
	}
	m := &harness.Matrix{
		Models:    []harness.Model{model},
		Traces:    specs,
		Scenarios: []predictor.Scenario{predictor.ScenarioA},
		Lengths:   []int{40},
	}
	cfg := Config{Parallelism: 2, ResultStore: store}

	first, _, err := runMatrix(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("first pass executed %d jobs, want 2", got)
	}
	stored, _, err := harness.ReadStoreFile(store)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range stored {
		if r.Provenance == nil || r.Provenance.GitSHA == "" {
			t.Fatalf("stored record %d carries no provenance SHA: %+v", i, r)
		}
	}

	second, _, err := runMatrix(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("second pass re-executed jobs: %d total runs", got)
	}
	clear := func(recs []harness.Record) []harness.Record {
		out := append([]harness.Record(nil), recs...)
		for i := range out {
			out[i].ElapsedSec = 0
			out[i].BranchesPerSec = 0
		}
		return out
	}
	if !reflect.DeepEqual(clear(first), clear(second)) {
		t.Fatalf("store-backed rerun differs:\nfirst  %+v\nsecond %+v", clear(first), clear(second))
	}

	// The in-memory path returns the same measurement stream.
	plain, _, err := runMatrix(m, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := clear(plain), clear(second)
	for i := range b {
		b[i].Provenance = nil
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("store path diverges from in-memory path:\nmem   %+v\nstore %+v", a, b)
	}
}

// TestExperimentModelsDeclareTheirBudgets: every model E1–E15 put in
// their matrices, Figure 9's budget variants included, declares its
// storage budget from its configuration without building a predictor,
// and the adapter holds every predictor a runner builds to that budget —
// a mismatch panics, which fails the cell and so the report. Each model
// builds at least once when all fifteen run, even this small.
//
// Every cell must also rebuild from its wire form through the registry's
// resolver, under the same key and budget, so `bpbench work` can serve
// E1–E15 cells. Only the seven experiment-local models of E9 and E10,
// which no spec expresses, may lack a spec.
func TestExperimentModelsDeclareTheirBudgets(t *testing.T) {
	cfg := Config{BranchesPerTrace: 200, Parallelism: 2, ResultStore: filepath.Join(t.TempDir(), "store.jsonl")}
	for _, e := range Registry() {
		rep := e.Run(cfg)
		for _, c := range rep.Checks {
			if c.Name == "harness sweep ran" && !c.Pass {
				t.Errorf("%s: %v", rep.ID, rep.Notes)
			}
		}
	}
	local := map[string]bool{
		"isl-tage-512k-sc5":          true,
		"tage-lsc-13comp-hist6:2000": true,
		"tage-lsc-13comp-hist3:300":  true,
		"tage-lsc-13comp-hist4:1000": true,
		"tage-lsc-13comp-hist8:5000": true,
		"tage-lsc-9comp-hist6:1000":  true,
		"tage-lsc-6comp-hist6:500":   true,
	}
	recs, _, err := harness.ReadStoreFile(cfg.ResultStore)
	if err != nil {
		t.Fatal(err)
	}
	cells, localCells := 0, map[string]bool{}
	for _, r := range recs {
		if r.Kind != harness.KindCell {
			continue
		}
		cells++
		if r.Spec == "" {
			if !local[r.Model] {
				t.Errorf("cell %s has no spec and is not an experiment-local model", r.Key())
			}
			localCells[r.Model] = true
			continue
		}
		w := harness.WireJob{
			Model: r.Model, Spec: r.Spec, Trace: r.Trace, TraceSpec: r.TraceSpec,
			Scenario: r.Scenario, Branches: r.Branches, DeltaLog: r.DeltaLog, Seed: r.Seed,
			Window: r.Window, ExecDelay: r.ExecDelay,
		}
		j, err := w.Job(models.Resolve)
		if err != nil {
			t.Errorf("cell %s does not rebuild from its wire form: %v", r.Key(), err)
			continue
		}
		if j.Key() != r.Key() || j.Model.StorageBits != r.StorageBits {
			t.Errorf("cell %s (%d bits) rebuilds as %s (%d bits)", r.Key(), r.StorageBits, j.Key(), j.Model.StorageBits)
		}
	}
	if cells == 0 || len(localCells) != len(local) {
		t.Fatalf("store holds %d cells and %d of the %d experiment-local models", cells, len(localCells), len(local))
	}
}

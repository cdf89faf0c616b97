package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/harness"
)

// readCells reads a JSONL store and returns its cell records keyed for
// comparison, with the timing/provenance noise scrubbed.
func readCells(t *testing.T, path string) map[string]harness.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := harness.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[string]harness.Record)
	for _, r := range recs {
		if r.Kind != "cell" {
			continue
		}
		r.ElapsedSec, r.BranchesPerSec, r.SimBranches = 0, 0, 0
		r.Provenance = nil
		cells[r.Key()] = r
	}
	return cells
}

// TestGeneratorSpecResume: a generator-spec workload runs through a
// -resume store, and a second resume of the same spec reuses every cell
// instead of re-simulating — spec strings are stable cell identities.
func TestGeneratorSpecResume(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	args := []string{"-models", "gshare", "-traces", "phased:period=4096#1",
		"-scenarios", "A", "-branches", "5000", "-resume", store}
	if code, _, errOut := runCapture(t, args...); code != 0 {
		t.Fatalf("first resume exited %d:\n%s", code, errOut)
	}
	cells := readCells(t, store)
	if len(cells) != 1 {
		t.Fatalf("store has %d cells, want 1", len(cells))
	}
	for _, r := range cells {
		if r.Trace != "phased:period=4096#1" || r.Category != "PHASED" {
			t.Fatalf("cell identity %q/%q", r.Trace, r.Category)
		}
		if r.TraceSpec != "" {
			t.Fatalf("generator cells must not carry a separate TraceSpec, got %q", r.TraceSpec)
		}
	}
	code, _, errOut := runCapture(t, args...)
	if code != 0 {
		t.Fatalf("second resume exited %d:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "reused 1 of 1 cells, ran 0") {
		t.Fatalf("second resume should reuse the cell:\n%s", errOut)
	}
}

// TestTraceSweepExpandsCells: -trace-sweep crosses the base spec with
// the swept field, one cell per value.
func TestTraceSweepExpandsCells(t *testing.T) {
	code, out, errOut := runCapture(t, "-models", "gshare", "-traces", "loopy:",
		"-trace-sweep", "trip=10:12", "-scenarios", "A", "-branches", "2000",
		"-format", "jsonl", "-noaggregates")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errOut)
	}
	var traces []string
	recs, err := harness.ReadRecords(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == "cell" {
			traces = append(traces, r.Trace)
		}
	}
	sort.Strings(traces)
	want := []string{"loopy:trip=10", "loopy:trip=11", "loopy:trip=12"}
	if strings.Join(traces, " ") != strings.Join(want, " ") {
		t.Fatalf("swept traces %v, want %v", traces, want)
	}
}

// TestSpecDeterministicAcrossParallelism: the same generator spec + seed
// measures identically no matter how many workers simulate it.
func TestSpecDeterministicAcrossParallelism(t *testing.T) {
	cells := func(parallelism string) map[string]harness.Record {
		code, out, errOut := runCapture(t, "-models", "tage", "-traces", "mix:loopy=2,datadep=1#3",
			"-scenarios", "A,C", "-branches", "5000", "-format", "jsonl", "-noaggregates",
			"-parallelism", parallelism)
		if code != 0 {
			t.Fatalf("-parallelism %s exited %d:\n%s", parallelism, code, errOut)
		}
		recs, err := harness.ReadRecords(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]harness.Record)
		for _, r := range recs {
			r.ElapsedSec, r.BranchesPerSec = 0, 0
			r.Provenance = nil
			m[r.Key()] = r
		}
		return m
	}
	serial, par := cells("1"), cells("4")
	if len(serial) != 2 || len(par) != 2 {
		t.Fatalf("cell counts %d/%d, want 2", len(serial), len(par))
	}
	for k, s := range serial {
		if p := par[k]; p != s {
			t.Fatalf("cell %s differs across -parallelism:\n1: %+v\n4: %+v", k, s, p)
		}
	}
}

// TestExternalTraceLocalVsDistributed is the acceptance end-to-end for
// file-backed workloads: a trace converted from CBP text runs through a
// local -resume store AND through serve/work (the worker regenerating
// it from the shipped path), and the two record sets are identical.
func TestExternalTraceLocalVsDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed e2e in -short mode")
	}
	dir := t.TempDir()

	// Convert a text trace the way an external user would. The sample
	// lives in the tracegen package's testdata; reuse it here.
	text := filepath.Join("..", "tracegen", "testdata", "cbp-sample.txt")
	in, err := os.Open(text)
	if err != nil {
		t.Fatal(err)
	}
	tr, st, err := repro.ConvertTrace(in, "cbp", "cbp-sample")
	in.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Conditional == 0 {
		t.Fatal("sample converted to zero branches")
	}
	bpt := filepath.Join(dir, "sample.bpt")
	f, err := os.Create(bpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := repro.WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Local run through a resume store.
	local := filepath.Join(dir, "local.jsonl")
	if code, _, errOut := runCapture(t, "-models", "tage,gshare", "-traces", "file:"+bpt,
		"-scenarios", "A", "-branches", "400", "-resume", local); code != 0 {
		t.Fatalf("local run exited %d:\n%s", code, errOut)
	}
	localCells := readCells(t, local)
	if len(localCells) != 2 {
		t.Fatalf("local store has %d cells, want 2", len(localCells))
	}
	for k, r := range localCells {
		if !strings.HasPrefix(r.Trace, "file:") || strings.Contains(r.Trace, dir) {
			t.Fatalf("%s: trace identity %q is not content-addressed", k, r.Trace)
		}
		if r.TraceSpec != "file:"+bpt {
			t.Fatalf("%s: trace_spec %q, want the path form", k, r.TraceSpec)
		}
		if r.Category != "EXT" {
			t.Fatalf("%s: category %q", k, r.Category)
		}
	}

	// Same matrix through the coordinator/worker pair.
	base := startServe(t)
	startWork(t, base)
	body := fmt.Sprintf(`{"models":["tage","gshare"],"traces":["file:%s"],"scenarios":"A","branches":[400]}`, bpt)
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep returned %s", resp.Status)
	}
	dist := filepath.Join(dir, "dist.jsonl")
	df, err := os.Create(dist)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	df.Close()

	distCells := readCells(t, dist)
	if len(distCells) != len(localCells) {
		t.Fatalf("distributed produced %d cells, local %d", len(distCells), len(localCells))
	}
	for k, l := range localCells {
		d, ok := distCells[k]
		if !ok {
			t.Fatalf("distributed run missing cell %s", k)
		}
		if l != d {
			t.Fatalf("cell %s differs local vs distributed:\nlocal: %+v\ndist:  %+v", k, l, d)
		}
	}
}

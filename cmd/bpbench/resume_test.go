package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/harness"
)

// sweepArgs is the shared small Figure 9-style grid: one scalable model
// swept across four storage budgets on two traces.
func sweepArgs(store string) []string {
	return []string{
		"-models", "tage", "-scenarios", "A", "-traces", "INT01,INT02",
		"-branches", "1500", "-delta", "-2:1", "-resume", store,
	}
}

// readStore parses a result store, zeroing the wall-clock telemetry
// fields (the only fields two identical runs may legitimately disagree
// on).
func readStore(t *testing.T, path string) []harness.Record {
	t.Helper()
	recs, err := harness.ReadRecordsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].ElapsedSec = 0
		recs[i].BranchesPerSec = 0
	}
	return recs
}

// TestResumeContinuesTruncatedSweep is the archetype end-to-end test:
// run a storage-budget sweep to a store, truncate the store mid-grid
// (simulating an interrupted run), resume, and assert the final store is
// identical — record for record, in order — to the uninterrupted run,
// modulo wall-clock timing.
func TestResumeContinuesTruncatedSweep(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	interrupted := filepath.Join(dir, "interrupted.jsonl")

	code, _, errOut := runCapture(t, sweepArgs(full)...)
	if code != 0 {
		t.Fatalf("sweep exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "reused 0 of 8 cells, ran 8") {
		t.Fatalf("fresh sweep stderr: %s", errOut)
	}

	// Truncate mid-grid: keep the first 5 of 8 cell lines.
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) <= 8 {
		t.Fatalf("store has %d lines, expected cells+aggregates", len(lines))
	}
	trunc := strings.Join(lines[:5], "\n") + "\n"
	if err := os.WriteFile(interrupted, []byte(trunc), 0o644); err != nil {
		t.Fatal(err)
	}

	code, _, errOut = runCapture(t, sweepArgs(interrupted)...)
	if code != 0 {
		t.Fatalf("resume exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "reused 5 of 8 cells, ran 3") {
		t.Fatalf("resume stderr: %s", errOut)
	}

	want := readStore(t, full)
	got := readStore(t, interrupted)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed store differs from uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestResumeCompleteStoreRunsNothing: re-invoking the sweep with -resume
// on its own completed output performs zero simulator runs and leaves
// the store byte-identical.
func TestResumeCompleteStoreRunsNothing(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	if code, _, errOut := runCapture(t, sweepArgs(store)...); code != 0 {
		t.Fatalf("sweep exit %d: %s", code, errOut)
	}
	before, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}

	code, _, errOut := runCapture(t, sweepArgs(store)...)
	if code != 0 {
		t.Fatalf("no-op resume exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "reused 8 of 8 cells, ran 0") {
		t.Fatalf("no-op resume must run nothing, stderr: %s", errOut)
	}
	after, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("no-op resume modified the store")
	}
}

// TestResumeMatchesSingleInvocationSweep: a single -delta invocation
// covers deltaLog -4..+3 for the reference TAGE (the Figure 9 sweep
// shape), and building the same store budget-by-budget through resumes
// converges to the same cell set.
func TestResumeMatchesSingleInvocationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-invocation sweep in -short mode")
	}
	dir := t.TempDir()
	oneShot := filepath.Join(dir, "oneshot.jsonl")
	grown := filepath.Join(dir, "grown.jsonl")

	args := func(store, delta string) []string {
		return []string{
			"-models", "tage", "-scenarios", "A", "-traces", "INT01",
			"-branches", "1200", "-delta", delta, "-resume", store,
		}
	}
	if code, _, errOut := runCapture(t, args(oneShot, "-4:3")...); code != 0 {
		t.Fatalf("one-shot sweep exit %d: %s", code, errOut)
	}
	// Grow the other store in two halves; the second resume reuses
	// nothing (disjoint budgets) but appends into the same store.
	if code, _, errOut := runCapture(t, args(grown, "-4:-1")...); code != 0 {
		t.Fatalf("first half exit %d: %s", code, errOut)
	}
	if code, _, errOut := runCapture(t, args(grown, "0:3")...); code != 0 {
		t.Fatalf("second half exit %d: %s", code, errOut)
	}
	// And a final full-range resume must find every cell present.
	code, _, errOut := runCapture(t, args(grown, "-4:3")...)
	if code != 0 || !strings.Contains(errOut, "reused 8 of 8 cells, ran 0") {
		t.Fatalf("full-range resume over grown store: exit %d, %s", code, errOut)
	}

	cells := func(recs []harness.Record) map[string]harness.Record {
		out := make(map[string]harness.Record)
		for _, r := range recs {
			if r.Kind == "cell" {
				out[r.Key()] = r
			}
		}
		return out
	}
	got := cells(readStore(t, grown))
	want := cells(readStore(t, oneShot))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grown store cells differ from one-shot sweep:\ngot  %+v\nwant %+v", got, want)
	}
	for d := -4; d <= 3; d++ {
		key := fmt.Sprintf("tage@%+d/INT01/A/1200", d)
		if _, ok := want[key]; !ok {
			t.Fatalf("one-shot sweep missing budget cell %s", key)
		}
	}
}

// TestResumeSurvivesCrashTail: a store whose final line was cut mid-
// write (kill -9 during Emit) resumes cleanly — the tail is dropped,
// its cell re-runs, and the final store matches an uninterrupted run.
func TestResumeSurvivesCrashTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	crashed := filepath.Join(dir, "crashed.jsonl")

	if code, _, errOut := runCapture(t, sweepArgs(full)...); code != 0 {
		t.Fatalf("sweep exit %d: %s", code, errOut)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Keep 3 full cell lines plus half of the 4th.
	lines := strings.SplitAfter(string(data), "\n")
	partial := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2]
	if err := os.WriteFile(crashed, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}

	code, _, errOut := runCapture(t, sweepArgs(crashed)...)
	if code != 0 {
		t.Fatalf("crash-tail resume exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "reused 3 of 8 cells, ran 5") {
		t.Fatalf("crash-tail resume stderr: %s", errOut)
	}
	if got, want := readStore(t, crashed), readStore(t, full); !reflect.DeepEqual(got, want) {
		t.Fatalf("crash-tail store differs from uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestResumeRefusesConfigMismatch: resuming a store under a different
// pipeline configuration must fail loudly instead of mixing pipeline
// models in one store.
func TestResumeRefusesConfigMismatch(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	if code, _, errOut := runCapture(t, sweepArgs(store)...); code != 0 {
		t.Fatalf("sweep exit %d: %s", code, errOut)
	}
	args := append(sweepArgs(store), "-window", "64")
	code, _, errOut := runCapture(t, args...)
	if code != 2 || !strings.Contains(errOut, "different configuration") {
		t.Fatalf("config-mismatch resume: exit %d, stderr: %s", code, errOut)
	}
}

func TestResumeFlagValidation(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "s.jsonl")
	cases := [][]string{
		{"-models", "tage", "-resume", store, "-o", filepath.Join(dir, "x")},
		{"-models", "tage", "-resume", store, "-format", "csv"},
		// gshare has no scaled constructor: a -delta sweep must name it.
		{"-models", "gshare", "-delta", "-1:1", "-branches", "100"},
		{"-models", "tage", "-delta", "3:1", "-branches", "100"},
		{"-models", "tage", "-delta", "x", "-branches", "100"},
		{"-models", "tage", "-delta", "1,1", "-branches", "100"},
	}
	for _, args := range cases {
		if code, _, _ := runCapture(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestParseDeltas(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"", nil},
		{"-2:1", []int{-2, -1, 0, 1}},
		{"3:3", []int{3}},
		{" -1 : 1 ", []int{-1, 0, 1}},
		{"-4,0,3", []int{-4, 0, 3}},
	} {
		got, err := parseDeltas(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseDeltas(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"1:0", "a:b", "1:b", "x", "1,,y"} {
		if _, err := parseDeltas(bad); err == nil {
			t.Errorf("parseDeltas(%q) must fail", bad)
		}
	}
}

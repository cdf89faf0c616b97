package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// growStore builds a store with real lifecycle garbage in it: a first
// completed half-sweep (cells + aggregate set), then a full-range resume
// that appends the remaining cells and a second aggregate set — so the
// uncompacted store holds one stale aggregate set for compaction to
// drop.
func growStore(t *testing.T, store string) {
	t.Helper()
	half := []string{
		"-models", "tage", "-scenarios", "A", "-traces", "INT01,INT02",
		"-branches", "1500", "-delta", "-2:-1", "-resume", store,
	}
	if code, _, errOut := runCapture(t, half...); code != 0 {
		t.Fatalf("half sweep exit %d: %s", code, errOut)
	}
	if code, _, errOut := runCapture(t, sweepArgs(store)...); code != 0 {
		t.Fatalf("full resume exit %d: %s", code, errOut)
	}
}

// TestCompactRoundTrip is the acceptance-criterion walk of the store
// lifecycle: grow a store through an interrupted-then-resumed sweep,
// compact it, and assert that (a) compaction dropped the stale aggregate
// set, (b) re-resuming the compacted store executes zero jobs, and (c)
// `bpbench diff` between the uncompacted and compacted stores reports
// zero MPKI movement — compaction changed nothing any reader observes.
func TestCompactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store.jsonl")
	compacted := filepath.Join(dir, "compacted.jsonl")
	growStore(t, store)

	// Dry-run first: reports, but must not touch the store.
	before, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCapture(t, "compact", store, "-dry-run")
	if code != 0 || !strings.Contains(errOut, "stale aggregates") {
		t.Fatalf("dry-run exit %d: %s", code, errOut)
	}
	after, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("-dry-run modified the store")
	}

	code, _, errOut = runCapture(t, "compact", "-o", compacted, store)
	if code != 0 {
		t.Fatalf("compact exit %d: %s", code, errOut)
	}
	// The half-sweep's aggregate set (2 models-variants worth of suite
	// rows) is stale; the full set survives as the recomputed one.
	if !strings.Contains(errOut, "8 distinct cells (0 still failed)") {
		t.Fatalf("compact summary: %s", errOut)
	}

	// Re-resuming the compacted store runs nothing.
	code, _, errOut = runCapture(t, sweepArgs(compacted)...)
	if code != 0 || !strings.Contains(errOut, "reused 8 of 8 cells, ran 0") {
		t.Fatalf("resume on compacted store: exit %d, %s", code, errOut)
	}

	// And the diff gate sees zero movement between the two stores.
	code, out, errOut := runCapture(t, "diff", store, compacted)
	if code != 0 {
		t.Fatalf("diff exit %d: %s%s", code, out, errOut)
	}
	if !strings.Contains(out, "compared 8 cells: 0 regressions, 0 improvements") {
		t.Fatalf("diff output:\n%s", out)
	}
}

// TestCompactInPlace: without -o the store is rewritten atomically in
// place, and compacting an already-compact store drops nothing.
func TestCompactInPlace(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	growStore(t, store)

	if code, _, errOut := runCapture(t, "compact", store); code != 0 {
		t.Fatalf("in-place compact exit %d: %s", code, errOut)
	}
	recs, err := harness.ReadRecordsFile(store)
	if err != nil {
		t.Fatalf("compacted store unreadable: %v", err)
	}
	_, stats := harness.Compact(recs)
	if stats.Dropped() != 0 {
		t.Fatalf("in-place compact left droppable records: %+v", stats)
	}
	code, _, errOut := runCapture(t, "compact", store, "-dry-run")
	if code != 0 || !strings.Contains(errOut, "(0 dropped:") {
		t.Fatalf("second compact: exit %d, %s", code, errOut)
	}
	if _, err := os.Stat(store + ".compact.tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

func TestCompactUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"compact"},
		{"compact", filepath.Join(dir, "absent.jsonl")},
		{"compact", filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")},
		{"compact", "-badflag", filepath.Join(dir, "a.jsonl")},
	} {
		if code, _, _ := runCapture(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

// TestResumePerfCoversReusedCells is the regression test for -perf on a
// resume: a store that reuses every cell (nothing ran) must still render
// a complete branches/sec table from the preserved telemetry instead of
// silently printing nothing.
func TestResumePerfCoversReusedCells(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	if code, _, errOut := runCapture(t, sweepArgs(store)...); code != 0 {
		t.Fatalf("sweep exit %d: %s", code, errOut)
	}

	code, _, errOut := runCapture(t, append(sweepArgs(store), "-perf")...)
	if code != 0 {
		t.Fatalf("no-op resume exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "reused 8 of 8 cells, ran 0") {
		t.Fatalf("resume stderr: %s", errOut)
	}
	if !strings.Contains(errOut, "simulator throughput") {
		t.Fatalf("-perf on an all-reused store printed no table:\n%s", errOut)
	}
	// One row per budget variant, with real telemetry merged in.
	for _, model := range []string{"tage@-2", "tage@+1"} {
		if !strings.Contains(errOut, model) {
			t.Fatalf("perf table missing %s:\n%s", model, errOut)
		}
	}
	if strings.Contains(errOut, " -\n") {
		t.Fatalf("perf table has empty-telemetry rows:\n%s", errOut)
	}
}

// TestFreshRunStampsProvenance is the acceptance contract: every record
// a fresh bpbench run writes carries a provenance block with a non-empty
// git SHA (the tests run inside the repository).
func TestFreshRunStampsProvenance(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	if code, _, errOut := runCapture(t, sweepArgs(store)...); code != 0 {
		t.Fatalf("sweep exit %d: %s", code, errOut)
	}
	recs, err := harness.ReadRecordsFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty store")
	}
	for i, r := range recs {
		if r.Provenance == nil || r.Provenance.GitSHA == "" {
			t.Fatalf("record %d (%s %s) has no provenance git SHA", i, r.Kind, r.Key())
		}
		if r.Provenance.Schema == 0 || r.Provenance.GoVersion == "" {
			t.Fatalf("record %d provenance incomplete: %+v", i, r.Provenance)
		}
	}
	if ps := harness.StoreProvenance(recs); len(ps) != 1 {
		t.Fatalf("fresh store spans %d revisions, want 1: %+v", len(ps), ps)
	}
}

// TestResumeWarnsOnProvenanceDrift: reusing cells recorded under a
// different git SHA than HEAD warns (but still reuses — drift is
// informational, not fatal).
func TestResumeWarnsOnProvenanceDrift(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	if code, _, errOut := runCapture(t, sweepArgs(store)...); code != 0 {
		t.Fatalf("sweep exit %d: %s", code, errOut)
	}

	// Rewrite the store as if it had been produced by another revision.
	recs, err := harness.ReadRecordsFile(store)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(store)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	for i := range recs {
		if recs[i].Provenance != nil {
			p := *recs[i].Provenance
			p.GitSHA = "deadbeefdeadbeefdeadbeefdeadbeefdeadbeef"
			recs[i].Provenance = &p
		}
		if err := enc.Encode(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	code, _, errOut := runCapture(t, sweepArgs(store)...)
	if code != 0 {
		t.Fatalf("drifted resume exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "reused 8 of 8 cells, ran 0") {
		t.Fatalf("drift must not prevent reuse: %s", errOut)
	}
	if !strings.Contains(errOut, "may not match HEAD") || !strings.Contains(errOut, "deadbeefde") {
		t.Fatalf("no drift warning in stderr:\n%s", errOut)
	}
	if !strings.Contains(errOut, "... and 5 more") {
		t.Fatalf("drift warning list not capped:\n%s", errOut)
	}
}

// TestDiffProvenanceFlag: `bpbench diff -provenance` renders the
// revision summary line; without the flag the output is unchanged.
func TestDiffProvenanceFlag(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	for _, store := range []string{a, b} {
		args := []string{"-models", "gshare", "-scenarios", "A", "-traces", "INT01",
			"-branches", "1500", "-format", "jsonl", "-o", store}
		if code, _, errOut := runCapture(t, args...); code != 0 {
			t.Fatalf("run exit %d: %s", code, errOut)
		}
	}
	code, out, _ := runCapture(t, "diff", "-provenance", a, b)
	if code != 0 {
		t.Fatalf("diff exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "provenance: baseline=[") {
		t.Fatalf("missing provenance summary:\n%s", out)
	}
	code, out, _ = runCapture(t, "diff", a, b)
	if code != 0 || strings.Contains(out, "provenance:") {
		t.Fatalf("default diff output changed:\n%s", out)
	}
}

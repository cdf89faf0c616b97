package repro

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/harness"
)

// The cross-run determinism suite. PR 1's contract — per-job seeds
// derived from cell keys, traces generated from each spec's own seed —
// means two executions of the same matrix must produce byte-identical
// JSONL records once the legitimately varying fields (wall-clock
// telemetry; provenance, which tracks the writing process, not the
// measurement) are excluded. Nothing previously pinned that end to end
// over real predictors; this suite does, across the reference TAGE, the
// gshare baseline, and scaled @±d budget variants, at different
// parallelism and trace-caching settings so scheduling can never leak
// into results.

// normalizedJSONL runs the matrix into a JSONL sink and returns the
// emitted lines with timing and provenance fields zeroed, re-encoded —
// what "byte-identical modulo timing and provenance" compares.
func normalizedJSONL(t *testing.T, m *BenchMatrix, cfg BenchConfig) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	sink, err := NewBenchSink("jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBench(m, cfg, sink); err != nil {
		t.Fatal(err)
	}
	recs, err := harness.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(recs))
	for i, r := range recs {
		r.ElapsedSec = 0
		r.BranchesPerSec = 0
		r.Provenance = nil
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = line
	}
	return out
}

func assertIdenticalRuns(t *testing.T, m *BenchMatrix) {
	t.Helper()
	prov := harness.CurrentProvenance()
	a := normalizedJSONL(t, m, BenchConfig{Parallelism: 4, Provenance: &prov})
	configs := []BenchConfig{
		{Parallelism: 1, NoTraceCache: true},
		{Parallelism: 1},
		{Parallelism: 3, NoTraceCache: true},
	}
	for _, cfg := range configs {
		b := normalizedJSONL(t, m, cfg)
		if len(a) != len(b) || len(a) == 0 {
			t.Fatalf("cfg %+v: runs emitted %d vs %d records", cfg, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("cfg %+v: record %d differs between identically-seeded runs:\n%s\nvs\n%s", cfg, i, a[i], b[i])
			}
		}
	}
}

// TestDeterminismAcrossRunsRealModels: the reference TAGE and the gshare
// baseline, two scenarios, two traces — byte-identical records across
// runs regardless of parallelism, trace caching, or provenance stamping.
func TestDeterminismAcrossRunsRealModels(t *testing.T) {
	m, err := NewBenchMatrix([]string{"tage", "gshare"}, []string{"INT01", "CLIENT01"}, "A,C", []int{2000})
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRuns(t, m)
}

// TestDeterminismAcrossRunsScaledVariants: the same contract holds for
// the @±d budget-scaled variants the -delta axis expands to — each
// scaled cell key derives its own seed, so the whole Figure 9 grid is
// reproducible cell by cell.
func TestDeterminismAcrossRunsScaledVariants(t *testing.T) {
	m, err := NewBenchMatrix([]string{"tage"}, []string{"INT01"}, "A", []int{2000})
	if err != nil {
		t.Fatal(err)
	}
	m.DeltaLogs = []int{-1, 1}
	assertIdenticalRuns(t, m)
}

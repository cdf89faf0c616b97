package main

import (
	"bytes"
	"os"
	"testing"

	"repro"
)

// TestGoldenBaseline re-runs the CI smoke matrices (2 models x 2
// scenarios over INT01 at 20k branches: the reference tage and gshare,
// and the composed tage-lsc and isl-tage stacks) and diffs each against
// its checked-in baseline: the same gate .github/workflows/ci.yml
// applies via `bpbench diff`. If a predictor change legitimately moves
// these numbers, regenerate the baseline, e.g.:
//
//	go run ./cmd/bpbench -models tage,gshare -scenarios A,C -traces INT01 \
//	  -branches 20000 -format jsonl -o cmd/bpbench/testdata/ci-golden.jsonl
//
// (ci-golden-stacks.jsonl is the same with -models tage-lsc,isl-tage,
// its wall-clock telemetry and provenance fields removed.)
func TestGoldenBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix run in -short mode")
	}
	for _, g := range []struct{ models, file string }{
		{"tage,gshare", "testdata/ci-golden.jsonl"},
		{"tage-lsc,isl-tage", "testdata/ci-golden-stacks.jsonl"},
	} {
		t.Run(g.models, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run([]string{
				"-models", g.models, "-scenarios", "A,C", "-traces", "INT01",
				"-branches", "20000", "-format", "jsonl",
			}, &out, &errOut)
			if code != 0 {
				t.Fatalf("matrix run exit %d: %s", code, errOut.String())
			}
			fresh, err := repro.ReadBenchRecords(&out)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(g.file)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			golden, err := repro.ReadBenchRecords(f)
			if err != nil {
				t.Fatal(err)
			}
			rep := repro.BenchDiff(golden, fresh, repro.BenchDiffOptions{})
			if rep.Cells != 4 {
				t.Fatalf("compared %d cells, want 4", rep.Cells)
			}
			if rep.HasRegressions() || len(rep.Improvements) > 0 ||
				len(rep.MissingInNew) > 0 || len(rep.MissingInOld) > 0 {
				var buf bytes.Buffer
				rep.Render(&buf)
				t.Fatalf("run drifted from %s (regenerate it if the change is intended):\n%s", g.file, buf.String())
			}
		})
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func runTracegen(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestUnknownWorkload: a bogus -name exits non-zero and the error lists
// what would have worked — names and spec kinds — instead of panicking.
func TestUnknownWorkload(t *testing.T) {
	code, _, stderr := runTracegen(t, "-name", "BOGUS", "-o", filepath.Join(t.TempDir(), "x.bpt"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, want := range []string{"BOGUS", "valid benchmark names:", "INT01", "workload kinds", "phased"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runTracegen(t, "-name", "INT01", "-branches", "0"); code != 2 {
		t.Fatalf("-branches 0: exit %d, want 2", code)
	}
	if code, _, _ := runTracegen(t, "-name", "INT01", "-branches", "-5"); code != 2 {
		t.Fatalf("-branches -5: exit %d, want 2", code)
	}
	code, _, stderr := runTracegen(t, "-name", "INT01", "-summarize", "x.bpt")
	if code != 2 || !strings.Contains(stderr, "one or the other") {
		t.Fatalf("-name+-summarize: exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := runTracegen(t); code != 2 {
		t.Fatal("no args should be a usage error")
	}
}

// TestGenerateAndSummarize: generate a spec workload to a file, then
// summarise it back; the report carries the branch-mix fields.
func TestGenerateAndSummarize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.bpt")
	code, _, stderr := runTracegen(t, "-name", "phased:period=512#1", "-branches", "5000", "-o", path)
	if code != 0 {
		t.Fatalf("generate failed (%d): %s", code, stderr)
	}
	code, stdout, stderr := runTracegen(t, "-summarize", path)
	if code != 0 {
		t.Fatalf("summarize failed (%d): %s", code, stderr)
	}
	for _, want := range []string{"name=phased:period=512#1", "branches=5000", "taken=", "top10-cover=", "transition-entropy="} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("summary missing %q:\n%s", want, stdout)
		}
	}
}

// TestConvertRoundTrip: the checked-in CBP sample converts to a binary
// trace that reads back with every line accounted for.
func TestConvertRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sample.bpt")
	code, stdout, stderr := runTracegen(t, "convert", "-format", "cbp", "-name", "cbp-sample", "-o", out, "testdata/cbp-sample.txt")
	if code != 0 {
		t.Fatalf("convert failed (%d): %s", code, stderr)
	}
	if !strings.Contains(stdout, "400 lines -> 400 conditional branches") {
		t.Fatalf("conversion report:\n%s", stdout)
	}
	if !strings.Contains(stdout, "bpbench -traces 'file:") {
		t.Fatalf("report should say how to run the trace:\n%s", stdout)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := repro.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "cbp-sample" || tr.Category != "EXT" || tr.Len() != 400 {
		t.Fatalf("read back %s/%s with %d branches", tr.Name, tr.Category, tr.Len())
	}
}

func TestConvertUsage(t *testing.T) {
	if code, _, _ := runTracegen(t, "convert"); code != 2 {
		t.Fatal("convert with no input should be a usage error")
	}
	if code, _, _ := runTracegen(t, "convert", "a.txt", "b.txt"); code != 2 {
		t.Fatal("convert with two inputs should be a usage error")
	}
	code, _, stderr := runTracegen(t, "convert", "-format", "elf", "testdata/cbp-sample.txt")
	if code != 1 || !strings.Contains(stderr, "cbp") {
		t.Fatalf("unknown format: exit %d, stderr %q", code, stderr)
	}
}

func TestSpecFileName(t *testing.T) {
	cases := map[string]string{
		"INT01":                 "int01",
		"phased:period=4096#1":  "phased-period-4096-1",
		"mix:loopy=2,datadep=1": "mix-loopy-2-datadep-1",
	}
	for in, want := range cases {
		if got := specFileName(in); got != want {
			t.Fatalf("specFileName(%q) = %q, want %q", in, got, want)
		}
	}
}

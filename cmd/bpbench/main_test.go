package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/harness"
)

func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestRunMatrixJSONL(t *testing.T) {
	code, out, errOut := runCapture(t,
		"-models", "gshare", "-scenarios", "A,C", "-traces", "INT01,INT02",
		"-branches", "2000", "-format", "jsonl", "-parallelism", "4")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	recs, err := harness.ReadRecords(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	var cells, aggs []harness.Record
	for _, r := range recs {
		if r.Kind == "cell" {
			cells = append(cells, r)
		} else {
			aggs = append(aggs, r)
		}
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cell records, want 4 (1 model x 2 traces x 2 scenarios)", len(cells))
	}
	wantKeys := []string{
		"gshare/INT01/A/2000", "gshare/INT01/C/2000",
		"gshare/INT02/A/2000", "gshare/INT02/C/2000",
	}
	for i, k := range wantKeys {
		if cells[i].Key() != k {
			t.Fatalf("cell %d = %s, want %s", i, cells[i].Key(), k)
		}
		if cells[i].Mispredicts == 0 || cells[i].MPKI <= 0 {
			t.Fatalf("cell %s has no measurements: %+v", k, cells[i])
		}
	}
	// category (INT) + hard + suite per (scenario) group.
	if len(aggs) != 6 {
		t.Fatalf("got %d aggregate records, want 6: %+v", len(aggs), aggs)
	}
}

func TestRunDeterministicAcrossInvocations(t *testing.T) {
	args := []string{"-models", "gshare", "-scenarios", "B", "-traces", "WS01",
		"-branches", "1500", "-format", "jsonl"}
	_, out1, _ := runCapture(t, args...)
	_, out2, _ := runCapture(t, append(args, "-notracecache", "-parallelism", "1")...)
	// Wall-clock telemetry legitimately differs between invocations; every
	// measurement field must be identical.
	norm := func(out string) []harness.Record {
		recs, err := harness.ReadRecords(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			recs[i].ElapsedSec = 0
			recs[i].BranchesPerSec = 0
		}
		return recs
	}
	if !reflect.DeepEqual(norm(out1), norm(out2)) {
		t.Fatalf("output not deterministic:\n%s\nvs\n%s", out1, out2)
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-models", "nope"},
		{"-scenarios", "Z"},
		{"-traces", "NOPE*"},
		{"-branches", "zero"},
		{"-branches", "-5"},
		{"-format", "xml"},
		{"stray-arg"},
		{"-include", "never-matches-anything"},
		{"-exclude", "[bad"},
		{"-window", "-1"},
		{"-execdelay", "-3"},
	}
	for _, args := range cases {
		if code, _, _ := runCapture(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestListMode(t *testing.T) {
	code, out, _ := runCapture(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"tage", "gshare", "INT01", "WS08"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := `{"kind":"cell","model":"tage","trace":"INT01","scenario":"A","branches":1000,"mpki":10,"mppki":200,"mispredicts":100}` + "\n"
	same := write("same.jsonl", base)
	old := write("old.jsonl", base)
	regressed := write("new.jsonl",
		`{"kind":"cell","model":"tage","trace":"INT01","scenario":"A","branches":1000,"mpki":12,"mppki":240,"mispredicts":120}`+"\n")

	if code, out, errOut := runCapture(t, "diff", old, same); code != 0 {
		t.Fatalf("identical runs: exit %d\n%s%s", code, out, errOut)
	}
	code, out, _ := runCapture(t, "diff", old, regressed)
	if code != 1 {
		t.Fatalf("regressed run: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSIONS") {
		t.Fatalf("diff output missing regression section:\n%s", out)
	}
	// +20% is fine under a 25% tolerance.
	if code, _, _ := runCapture(t, "diff", "-tolerance", "0.25", old, regressed); code != 0 {
		t.Fatal("tolerance flag not honoured")
	}
	if code, _, _ := runCapture(t, "diff", old); code != 2 {
		t.Fatal("missing operand must be a usage error")
	}
	// An explicit -tolerance 0 means strict: even a tiny regression fails.
	tiny := write("tiny.jsonl",
		`{"kind":"cell","model":"tage","trace":"INT01","scenario":"A","branches":1000,"mpki":10.0001,"mppki":200,"mispredicts":100}`+"\n")
	if code, _, _ := runCapture(t, "diff", "-tolerance", "0", "-absfloor", "0", old, tiny); code != 1 {
		t.Fatal("-tolerance 0 must demand exact matching")
	}
	if code, _, _ := runCapture(t, "diff", old, tiny); code != 0 {
		t.Fatal("default tolerance must absorb a +0.001% move")
	}
	// An empty baseline must not make the gate pass vacuously.
	empty := write("empty.jsonl", "")
	if code, _, _ := runCapture(t, "diff", empty, same); code != 2 {
		t.Fatal("empty baseline must be an error, not a pass")
	}
	if code, _, _ := runCapture(t, "diff", old, filepath.Join(dir, "absent.jsonl")); code != 2 {
		t.Fatal("unreadable file must be a usage error")
	}
}

func TestEndToEndRunThenDiffSelf(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	for _, p := range []string{a, b} {
		code, _, errOut := runCapture(t,
			"-models", "gshare", "-scenarios", "A", "-traces", "INT01",
			"-branches", "1200", "-format", "jsonl", "-o", p)
		if code != 0 {
			t.Fatalf("run exit %d: %s", code, errOut)
		}
	}
	if code, out, _ := runCapture(t, "diff", a, b); code != 0 {
		t.Fatalf("self-diff must pass, exit %d:\n%s", code, out)
	}
}

func TestParseLengths(t *testing.T) {
	got, err := parseLengths("1000, 2000")
	if err != nil || !reflect.DeepEqual(got, []int{1000, 2000}) {
		t.Fatalf("got %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0", "10,-1"} {
		if _, err := parseLengths(bad); err == nil {
			t.Errorf("parseLengths(%q) must fail", bad)
		}
	}
}

package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// End-to-end coverage of the ModelSpec path through bpbench: arbitrary
// (non-named) specs run through the resumable store with their canonical
// spec recorded, and -sweep expands a spec field into a matrix axis.

// TestSpecResumeEndToEnd: a non-named spec runs through `bpbench
// -resume`, its canonical spec string lands in every cell record of the
// store, and re-resuming reuses everything (the spec validation accepts
// what it wrote).
func TestSpecResumeEndToEnd(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store.jsonl")
	args := []string{
		"-models", "tage:tables=9", "-scenarios", "A", "-traces", "INT01,INT02",
		"-branches", "1500", "-resume", store,
	}
	if code, _, errOut := runCapture(t, args...); code != 0 {
		t.Fatalf("spec resume exit %d: %s", code, errOut)
	}
	recs := readStore(t, store)
	cells := 0
	for _, r := range recs {
		if r.Kind != "cell" {
			continue
		}
		cells++
		if r.Model != "tage:tables=9" || r.Spec != "tage:tables=9" {
			t.Fatalf("cell model/spec %q/%q, want canonical tage:tables=9", r.Model, r.Spec)
		}
	}
	if cells != 2 {
		t.Fatalf("store holds %d cells, want 2", cells)
	}

	// Re-resume: everything reuses, nothing runs.
	code, _, errOut := runCapture(t, args...)
	if code != 0 || !strings.Contains(errOut, "reused 2 of 2 cells, ran 0") {
		t.Fatalf("re-resume exit %d: %s", code, errOut)
	}

	// A non-canonical spelling of the same configuration resolves to the
	// same canonical key and still reuses the stored cells.
	alt := append([]string(nil), args...)
	alt[1] = "tage:tables=09"
	code, _, errOut = runCapture(t, alt...)
	if code != 0 || !strings.Contains(errOut, "reused 2 of 2 cells, ran 0") {
		t.Fatalf("non-canonical re-resume exit %d: %s", code, errOut)
	}
}

// TestSpecDeltaAxis: a parameterised spec is scalable, so the -delta
// axis applies to it, keying cells by the rescaled canonical spec.
func TestSpecDeltaAxis(t *testing.T) {
	code, out, errOut := runCapture(t,
		"-models", "gshare:log=10", "-scenarios", "A", "-traces", "INT01",
		"-branches", "1500", "-delta", "0:1", "-format", "jsonl")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	recs, err := harness.ReadRecords(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	var models []string
	var bits []int
	for _, r := range recs {
		if r.Kind == "cell" {
			models = append(models, r.Model)
			bits = append(bits, r.StorageBits)
			if r.Spec != r.Model {
				t.Fatalf("scaled cell spec %q != model %q", r.Spec, r.Model)
			}
		}
	}
	if len(models) != 2 || models[0] != "gshare:log=10@+0" || models[1] != "gshare:log=10@+1" {
		t.Fatalf("scaled models %v", models)
	}
	if bits[1] != 2*bits[0] {
		t.Fatalf("scaled storage %v, want a doubling", bits)
	}

	// A spec that already carries a delta cannot also get the axis.
	code, _, errOut = runCapture(t,
		"-models", "gshare:log=10@+1", "-delta", "0:1", "-traces", "INT01", "-branches", "1500")
	if code != 2 || !strings.Contains(errOut, "already carries a storage delta") {
		t.Fatalf("delta-on-delta: exit %d, stderr: %s", code, errOut)
	}
}

// TestSweepFlag: -sweep turns a spec field into a matrix axis.
func TestSweepFlag(t *testing.T) {
	code, out, errOut := runCapture(t,
		"-models", "tage:tables=13", "-sweep", "tables=11:13", "-scenarios", "A",
		"-traces", "INT01", "-branches", "1500", "-format", "jsonl")
	if code != 0 {
		t.Fatalf("sweep exit %d: %s", code, errOut)
	}
	recs, err := harness.ReadRecords(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	var models []string
	for _, r := range recs {
		if r.Kind == "cell" {
			models = append(models, r.Model)
		}
	}
	want := []string{"tage:tables=11", "tage:tables=12", "tage:tables=13"}
	if len(models) != 3 || models[0] != want[0] || models[1] != want[1] || models[2] != want[2] {
		t.Fatalf("swept models %v, want %v", models, want)
	}

	// Bad sweeps fail fast with actionable messages.
	for _, c := range []struct{ sweep, want string }{
		{"tables", "key=lo:hi"},
		{"tables=13:9", "lo 13 > hi 9"},
		{"tables=90:91", "out of range"},
		{"warp=1:2", "warp"},
	} {
		code, _, errOut := runCapture(t,
			"-models", "tage", "-sweep", c.sweep, "-traces", "INT01", "-branches", "1500")
		if code != 2 || !strings.Contains(errOut, c.want) {
			t.Fatalf("-sweep %q: exit %d, stderr %q (want %q)", c.sweep, code, errOut, c.want)
		}
	}
}

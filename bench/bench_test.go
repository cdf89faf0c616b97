package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.json from one seed-1 rep of every workload at each size profile")

// declared is BENCHMARK.json, as far as the tests check it.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkMetrics asserts that got holds exactly the declared metrics, each
// finite and in its declared unit.
func checkMetrics(t *testing.T, got map[string]stat, want []declaredMetric) {
	t.Helper()
	for _, d := range want {
		s, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.Name)
		case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
			t.Errorf("metric %s = %v, not finite", d.Name, s.Value)
		case s.Unit != d.Unit:
			t.Errorf("metric %s in %q, declared in %q", d.Name, s.Unit, d.Unit)
		}
	}
	if len(got) != len(want) {
		names := make(map[string]bool)
		for _, d := range want {
			names[d.Name] = true
		}
		for n := range got {
			if !names[n] {
				t.Errorf("metric %s emitted but not declared", n)
			}
		}
	}
}

func TestDeclaredWorkloads(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestWorkloads runs every workload at tiny sizes through the same path
// an end-to-end run takes.
func TestWorkloads(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := measure(w, newEnv(1, t.TempDir(), tinySizes), 0, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep.Stats, d.EndToEnd)
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%d of %d attempts failed", rep.Failed, rep.Attempted)
			}
			for _, m := range rep.Mismatches {
				t.Error(m)
			}
		})
	}
}

// TestTracedPass runs the traced pass at tiny sizes: every per-layer
// metric is emitted, the outputs agree across paths, and the spans
// attribute each rep's whole wall time.
func TestTracedPass(t *testing.T) {
	d := readDeclared(t)
	res, err := runTraced(newEnv(1, t.TempDir(), tinySizes), 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res.report.Stats, d.PerLayer)
	if res.report.Failed != 0 {
		t.Errorf("%d of %d attempts failed", res.report.Failed, res.report.Attempted)
	}
	for _, m := range res.report.Mismatches {
		t.Error(m)
	}
	if bad := checkSpans(res.spans); len(bad) > 0 {
		t.Error(bad)
	}
	if len(res.ladder.Rows) != 4*7 {
		t.Errorf("ladder has %d rows, want 7 rungs for each of 4 models", len(res.ladder.Rows))
	}
}

// TestSelfTimes checks the attribution rule on a hand-made trace: a
// root with a nested child and two overlapping parallel children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "a.child", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "b", Start: 40, End: 90},
		{ID: 5, Parent: 1, Name: "late", Start: 95, End: -1},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]float64{1: 15, 2: 30, 3: 10, 4: 40, 5: 5}
	for id, v := range want {
		if self[id] != v {
			t.Errorf("span %d self time %v, want %v", id, self[id], v)
		}
	}
	if bad := checkSpans(spans); len(bad) > 0 {
		t.Error(bad)
	}
	if _, err := selfTimes([]span{{ID: 1, Parent: 7, Name: "orphan", End: 1}}); err == nil {
		t.Error("a span whose parent does not exist was accepted")
	}
}

// TestQuartiles matches Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 7}, 4.5, 7.5},
	} {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

// TestJudge covers the paired-comparison verdicts.
func TestJudge(t *testing.T) {
	runs := func(vs ...float64) []sample {
		out := make([]sample, len(vs))
		for i, v := range vs {
			out[i] = sample{v, v * 0.99, v * 1.01}
		}
		return out
	}
	same := runs(10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10)
	faster := runs(8, 8.1, 7.9, 8, 8.2, 7.8, 8, 8.1, 7.9, 8)
	slower := runs(12, 12.1, 11.9, 12, 12.2, 11.8, 12, 12.1, 11.9, 12)
	noisy := runs(5, 15, 10, 7, 13, 10, 6, 14, 10, 10)
	for _, c := range []struct {
		name      string
		a, c      []sample
		want      string
		higherBtr bool
	}{
		{"identical", same, same, "no regression", false},
		{"faster", same, faster, "improvement", false},
		{"slower", same, slower, "regression", false},
		{"noisy", noisy, same, "unresolved", false},
		{"higher is better", same, slower, "improvement", true},
		{"too few pairs to gain", same[:3], faster[:3], "no regression", false},
	} {
		if got := judge(c.a, c.c, c.higherBtr, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestFingerprints rewrites testdata/fingerprints.json under -update.
func TestFingerprints(t *testing.T) {
	if !*update {
		t.Skip("rewrites testdata/fingerprints.json with -update")
	}
	out := make(map[string]map[string]string)
	for _, sz := range []sizes{tinySizes, fullSizes} {
		out[sz.profile] = make(map[string]string)
		for _, w := range workloads {
			inst, err := w.setup(newEnv(1, t.TempDir(), sz))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runRep(inst, nil)
			inst.close()
			if err != nil {
				t.Fatal(err)
			}
			out[sz.profile][w.name] = rep.fingerprint
		}
	}
	if err := writeJSON("testdata/fingerprints.json", out); err != nil {
		t.Fatal(err)
	}
}

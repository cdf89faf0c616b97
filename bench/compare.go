package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares a parent run file with a change's, workload by
// workload and metric by metric, under the bounds of the BENCHMARK.json
// at or above the working directory. Run
// i of one file is paired with run i of the other; alternate which side
// runs first when making them. It exits 1 when any metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare parent.json change.json")
		return 2
	}
	var bf benchmarkFile
	var parent, change runFile
	for _, in := range []struct {
		path string
		v    any
	}{{filepath.Join(repoRoot(), "BENCHMARK.json"), &bf}, {args[0], &parent}, {args[1], &change}} {
		data, err := os.ReadFile(in.path)
		if err == nil {
			err = json.Unmarshal(data, in.v)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench compare: %s: %v\n", in.path, err)
			return 2
		}
	}

	fmt.Fprintf(stdout, "%-13s %-11s %12s %12s %8s %6s %6s  %s\n", "workload", "metric", "parent", "change", "worse", "pairs", "wins", "verdict")
	regressed := false
	for _, w := range runWorkloads(parent, change) {
		for _, b := range bf.EndToEnd {
			a := values(parent, w, b.Name)
			c := values(change, w, b.Name)
			if len(a) == 0 || len(c) == 0 {
				continue
			}
			v := judge(a, c, b.Better == "higher", b.Bound)
			if v.verdict == "regression" {
				regressed = true
			}
			fmt.Fprintf(stdout, "%-13s %-11s %12.5g %12.5g %+7.1f%% %6d %6d  %s\n",
				w, b.Name, v.parent, v.change, 100*v.delta, v.pairs, v.wins, v.verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// runWorkloads lists the workloads present in both files, in benchmark
// order.
func runWorkloads(a, b runFile) []string {
	seen := func(f runFile) map[string]bool {
		s := make(map[string]bool)
		for _, r := range f.Runs {
			s[r.Workload] = true
		}
		return s
	}
	sa, sb := seen(a), seen(b)
	var out []string
	for _, w := range workloadNames() {
		if sa[w] && sb[w] {
			out = append(out, w)
		}
	}
	return out
}

// sample is one run's value of a metric with that run's own spread.
type sample struct {
	value, q1, q3 float64
}

// values lists a metric's per-run samples for a workload, in run order.
func values(f runFile, workload, metric string) []sample {
	var out []sample
	for _, r := range f.Runs {
		if s, ok := r.Stats[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, sample{s.Value, s.Q1, s.Q3})
		}
	}
	return out
}

type verdict struct {
	parent, change float64 // medians over runs
	delta          float64 // relative change, positive = worse
	pairs, wins    int
	verdict        string
}

// judge applies the paired-run rules: a gain needs at least ten pairs,
// a win in at least nine of ten, and a median gap wider than the spread
// between the parent's own runs; a metric whose spread exceeds its
// bound is unresolved rather than unchanged, unless every change run
// beats every parent run; otherwise a median worse by more than the
// bound is a regression.
func judge(a, c []sample, higherBetter bool, bound float64) verdict {
	va, vc := valuesOf(a), valuesOf(c)
	v := verdict{parent: medianOf(va), change: medianOf(vc), pairs: min(len(a), len(c))}
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	v.delta = (v.change - v.parent) / v.parent
	if higherBetter {
		v.delta = -v.delta
	}
	for i := 0; i < v.pairs; i++ {
		if better(c[i].value, a[i].value) {
			v.wins++
		}
	}
	gap := math.Abs(v.change - v.parent)
	iqrA := spread(a)
	worstChange, bestParent := slices.Max(vc), slices.Min(va)
	if higherBetter {
		worstChange, bestParent = slices.Min(vc), slices.Max(va)
	}
	allBetter := better(worstChange, bestParent)
	switch {
	case v.pairs >= 10 && v.wins*10 >= 9*v.pairs && gap > iqrA*v.parent:
		v.verdict = "improvement"
	case (iqrA > bound || spread(c) > bound) && !allBetter:
		v.verdict = "unresolved"
	case v.delta > bound:
		v.verdict = "regression"
	default:
		v.verdict = "no regression"
	}
	return v
}

func valuesOf(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.value
	}
	return out
}

// spread is the run-to-run interquartile range relative to the median.
// With fewer than four runs it falls back to the median of each run's
// own interquartile range over its reps.
func spread(s []sample) float64 {
	v := valuesOf(s)
	sort.Float64s(v)
	if len(v) >= 4 {
		q1, q3 := quartiles(v)
		return (q3 - q1) / median(v)
	}
	within := make([]float64, len(s))
	for i, x := range s {
		within[i] = (x.q3 - x.q1) / x.value
	}
	return medianOf(within)
}

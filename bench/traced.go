package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// tracedResult is the outcome of the traced pass.
type tracedResult struct {
	report report
	spans  []span
	ladder ladderFile
}

// runTraced is the traced pass. It runs the cost ladder for about half
// of seconds and the layer probes, then traces every workload
// (see traceWorkload). Every per-layer metric comes from here; no
// end-to-end metric does.
func runTraced(e *env, seconds int, log io.Writer) (tracedResult, error) {
	res := tracedResult{report: report{Seed: e.seed, Traced: true}}
	m := metricSet{}
	start := time.Now()
	lf, err := runLadder(e, time.Duration(seconds)*time.Second/2, m)
	if err != nil {
		return res, fmt.Errorf("ladder: %w", err)
	}
	fmt.Fprintf(log, "bench: ladder, %d rounds (%.1fs)\n", lf.Rounds, time.Since(start).Seconds())
	if err := layerProbes(e, m); err != nil {
		return res, fmt.Errorf("layer probes: %w", err)
	}
	tr := newTracer()
	var mism []string
	for _, w := range workloads {
		start := time.Now()
		got, err := traceWorkload(w, e, tr, m)
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.name, err)
		}
		res.report.Attempted += got.attempted
		res.report.Failed += got.failed
		mism = append(mism, got.mismatches...)
		fmt.Fprintf(log, "bench: traced %s (%.1fs)\n", w.name, time.Since(start).Seconds())
	}
	res.spans = tr.snapshot()
	mism = append(mism, checkSpans(res.spans)...)
	self, err := selfTimes(res.spans)
	if err != nil {
		return res, err
	}
	mism = append(mism, selfMetrics(res.spans, self, m)...)
	lf.CellRungs = cellRungs(m)
	res.ladder = lf
	res.report.Stats = m
	res.report.Mismatches = mism
	res.report.Correct = len(mism) == 0 && res.report.Failed == 0
	return res, nil
}

// traceWorkload runs one workload's part of the traced pass: after a
// warm-up rep, two untraced and two traced reps in the order untraced,
// traced, traced, untraced, so that a steady drift in host speed cancels
// out of the tracing overhead. Every rep's outputs must agree. It returns
// the traced reps' outcome.
func traceWorkload(w workloadDef, e *env, tr *tracer, m metricSet) (repOut, error) {
	inst, err := w.setup(e)
	if err != nil {
		return repOut{}, err
	}
	defer inst.close()
	warm, err := runRep(inst, nil)
	if err != nil {
		return repOut{}, err
	}
	res := repOut{mismatches: warm.mismatches}
	res.mismatches = append(res.mismatches, checkFingerprint(e, w.name, warm.fingerprint)...)
	var walls [4]float64
	for i := range walls {
		var sc *scope
		if i == 1 || i == 2 {
			sc = tr.scope(fmt.Sprintf("%s/%d", w.name, i))
		}
		var out repOut
		if out, walls[i], err = timeRep(inst, sc); err != nil {
			return repOut{}, err
		}
		res.mismatches = append(res.mismatches, out.mismatches...)
		if out.fingerprint != warm.fingerprint {
			res.mismatches = append(res.mismatches, fmt.Sprintf("%s: rep %d outputs (fingerprint %s) differ from the warm-up rep's (%s)", w.name, i+1, out.fingerprint, warm.fingerprint))
		}
		if sc != nil {
			res.attempted += out.attempted
			res.failed += out.failed
			for name, s := range out.layers {
				m[name] = s
			}
		}
	}
	m.put("trace_overhead_ratio."+w.name, "ratio", (walls[1]+walls[2])/(walls[0]+walls[3]))
	res.mismatches = append(res.mismatches, inst.check()...)
	if err := inst.probe(m); err != nil {
		return repOut{}, fmt.Errorf("probe: %w", err)
	}
	return res, nil
}

// selfMetrics adds self.<workload>.<layer>_s, the mean over the
// workload's traced reps, for every declared layer, and reports spans of
// a layer the workload does not declare.
func selfMetrics(spans []span, self map[int64]float64, m metricSet) []string {
	sums := make(map[string]float64)
	reps := make(map[string]map[string]bool)
	var bad []string
	for _, s := range spans {
		w, _, _ := strings.Cut(s.Rep, "/")
		sums[w+"\x00"+s.Name] += self[s.ID] / 1e9
		if reps[w] == nil {
			reps[w] = make(map[string]bool)
		}
		reps[w][s.Rep] = true
	}
	for _, w := range workloads {
		declared := make(map[string]bool)
		for _, l := range w.layers {
			declared[l] = true
			m.put("self."+w.name+"."+l+"_s", "s", sums[w.name+"\x00"+l]/float64(len(reps[w.name])))
		}
		for key := range sums {
			if name, layer, _ := strings.Cut(key, "\x00"); name == w.name && !declared[layer] {
				bad = append(bad, fmt.Sprintf("%s recorded %s spans, which is not one of its layers", w.name, layer))
			}
		}
	}
	return bad
}

// cellRungs continues the ladder past one simulation with the per-cell
// layer costs the workloads' probes measured.
func cellRungs(m metricSet) []cellRung {
	var out []cellRung
	for i, c := range []struct{ layer, metric string }{
		{"pooled predictor reset", "repro.reset_us.tage.d0"},
		{"harness cell (trace cache, pool, record)", "harness.cell_overhead_us"},
		{"store append", "store.append_us"},
		{"lease round trip", "lease.results_ms_p50"},
	} {
		s := m[c.metric]
		out = append(out, cellRung{Rung: 6 + i, Layer: c.layer, Metric: c.metric, Value: s.Value, Unit: s.Unit})
	}
	return out
}

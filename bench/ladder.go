package main

import (
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/composed"
	"repro/internal/gshare"
	"repro/internal/ium"
	"repro/internal/memarray"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The cost ladder: each rung adds exactly one layer to the one below,
// over tage-hot's traces, and the difference between two rungs is that
// layer's cost in ns per branch.
//
//	1 decode    drain trace.Cursor.NextBatch
//	2 predict   + Predict
//	3 resolve   + OnResolve
//	4 retire    + Retire right after OnResolve (reread true for A, false for B)
//	5 pipeline  sim.Runner.RunTrace: the in-flight ring, retire timing and
//	            scenario dispatch replace the inline retire
//
// Rungs 1-4 call the predictor through the predictor.Predictor[C]
// interface, as sim.Runner does; rung 4A is also run on a concrete
// *tage.Predictor, and the difference is what the interface costs.
//
// OnResolve pushes an entry into the IUM of the composite predictors and
// Retire pops it. Rung 3 pops it too, so that Predict finds the IUM
// empty in rungs 3 and 4 alike; without the pop the buffer stays full
// and rung 3 would time Predict's search of it, not OnResolve. TAGE-LSC's
// in-flight local histories have no such public pop: its rung 3 still
// searches a full buffer (see README.md).

// decodeBlock matches the simulator's decode batch.
const decodeBlock = 256

// ladderFile is the ladder as the traced pass writes it.
type ladderFile struct {
	Comment  string      `json:"comment"`
	Host     *host       `json:"host,omitempty"`
	Traces   []string    `json:"traces"`
	Branches int         `json:"branches_per_trace"`
	Rounds   int         `json:"rounds"`
	Rows     []ladderRow `json:"rows"`
	Sums     []ladderSum `json:"sums"`
	// Cell rungs continue the ladder past one simulation: the pooled
	// predictor reset, the harness's per-cell work, the store append and
	// a lease round trip, per cell (or per lease).
	CellRungs []cellRung `json:"cell_rungs"`
}

type ladderRow struct {
	Model    string  `json:"model"`
	Scenario string  `json:"scenario,omitempty"`
	Rung     int     `json:"rung"`
	Layer    string  `json:"layer"`
	RungNs   float64 `json:"rung_ns_per_branch"`
	LayerNs  float64 `json:"layer_ns_per_branch"`
}

// ladderSum checks a model's ladder: its layer costs should add up to
// an independent median of rung 5A.
type ladderSum struct {
	Model    string  `json:"model"`
	LayersNs float64 `json:"layers_ns_per_branch"`
	TotalNs  float64 `json:"total_A_ns_per_branch"`
	Error    float64 `json:"relative_error"`
}

type cellRung struct {
	Rung   int     `json:"rung"`
	Layer  string  `json:"layer"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
}

const ladderComment = "Per-layer cost ladder, host time in ns per branch (medians over rounds). " +
	"Regenerate from bench/: go run . -trace 1. A layer's cost is the median over rounds of its rung minus the rung below."

// rungs is one round of rungs 2-5 for one model, in ns per branch.
type rungs struct {
	predict, resolve, retireA, retireB, simA, simB float64
}

// ladderModel runs one round of one model's rungs.
type ladderModel struct {
	name  string
	round func(traces []*trace.Trace) rungs
}

// newLadderModel builds the rungs of one predictor; iumBuf is its IUM,
// nil when it has none.
func newLadderModel[C any](name string, p predictor.Predictor[C], iumBuf *ium.Buffer) ladderModel {
	var rn sim.Runner[C]
	buf := make([]trace.Branch, decodeBlock)
	return ladderModel{name: name, round: func(traces []*trace.Trace) rungs {
		return rungs{
			predict: inlineRung(p, iumBuf, traces, buf, 2, false),
			resolve: inlineRung(p, iumBuf, traces, buf, 3, false),
			retireA: inlineRung(p, iumBuf, traces, buf, 4, true),
			retireB: inlineRung(p, iumBuf, traces, buf, 4, false),
			simA:    simRung(p, &rn, traces, predictor.ScenarioA),
			simB:    simRung(p, &rn, traces, predictor.ScenarioB),
		}
	}}
}

// ladderModels builds the four models of the ladder. The constructors
// are the ones behind the named models "tage", "gshare", "isl-tage" and
// "tage-lsc"; the ladder needs the predictors themselves, which the
// model facade keeps private.
func ladderModels() []ladderModel {
	isl := composed.New(composed.ISLTAGE(tage.Reference(), "ISL-TAGE"))
	lsc := composed.New(composed.TAGELSC(composed.Budget512K(), "TAGE-LSC"))
	return []ladderModel{
		newLadderModel[tage.Ctx]("tage", tage.New(tage.Reference()), nil),
		newLadderModel[gshare.Ctx]("gshare", gshare.New(18), nil),
		newLadderModel[composed.Ctx]("isl-tage", isl, isl.Tage().IUM()),
		newLadderModel[composed.Ctx]("tage-lsc", lsc, lsc.Tage().IUM()),
	}
}

// decodeSink keeps the decode rung's work observable.
var decodeSink uint64

// decodeRung is rung 1: drain the traces through a Cursor.
func decodeRung(traces []*trace.Trace, buf []trace.Branch) float64 {
	var cur trace.Cursor
	var sum uint64
	var elapsed time.Duration
	n := 0
	for _, tr := range traces {
		cur.Seek(tr)
		start := time.Now()
		for k := cur.NextBatch(buf); k > 0; k = cur.NextBatch(buf) {
			for _, b := range buf[:k] {
				sum += b.PC
			}
			n += k
		}
		elapsed += time.Since(start)
	}
	decodeSink = sum
	return perBranch(elapsed, n)
}

// inlineRung is rung 2 (predict), 3 (+ resolve) or 4 (+ retire), with
// the predictor Reset before each trace, outside the timing.
func inlineRung[C any](p predictor.Predictor[C], iumBuf *ium.Buffer, traces []*trace.Trace, buf []trace.Branch, rung int, reread bool) float64 {
	var cur trace.Cursor
	var ctx C
	var elapsed time.Duration
	n := 0
	for _, tr := range traces {
		p.Reset()
		cur.Seek(tr)
		start := time.Now()
		switch rung {
		case 2:
			for k := cur.NextBatch(buf); k > 0; k = cur.NextBatch(buf) {
				for _, b := range buf[:k] {
					p.Predict(b.PC, &ctx)
				}
				n += k
			}
		case 3:
			for k := cur.NextBatch(buf); k > 0; k = cur.NextBatch(buf) {
				for _, b := range buf[:k] {
					pred := p.Predict(b.PC, &ctx)
					p.OnResolve(b.PC, b.Taken, pred != b.Taken, &ctx)
					if iumBuf != nil {
						iumBuf.PopOldest()
					}
				}
				n += k
			}
		default:
			for k := cur.NextBatch(buf); k > 0; k = cur.NextBatch(buf) {
				for _, b := range buf[:k] {
					pred := p.Predict(b.PC, &ctx)
					p.OnResolve(b.PC, b.Taken, pred != b.Taken, &ctx)
					p.Retire(b.PC, b.Taken, &ctx, reread)
				}
				n += k
			}
		}
		elapsed += time.Since(start)
	}
	return perBranch(elapsed, n)
}

// concreteRetireRung is rung 4A on a concrete *tage.Predictor, with no
// interface between the loop and the predictor.
func concreteRetireRung(p *tage.Predictor, traces []*trace.Trace, buf []trace.Branch) float64 {
	var cur trace.Cursor
	var ctx tage.Ctx
	var elapsed time.Duration
	n := 0
	for _, tr := range traces {
		p.Reset()
		cur.Seek(tr)
		start := time.Now()
		for k := cur.NextBatch(buf); k > 0; k = cur.NextBatch(buf) {
			for _, b := range buf[:k] {
				pred := p.Predict(b.PC, &ctx)
				p.OnResolve(b.PC, b.Taken, pred != b.Taken, &ctx)
				p.Retire(b.PC, b.Taken, &ctx, true)
			}
			n += k
		}
		elapsed += time.Since(start)
	}
	return perBranch(elapsed, n)
}

// simRung is rung 5: the full simulator pipeline.
func simRung[C any](p predictor.Predictor[C], rn *sim.Runner[C], traces []*trace.Trace, sc predictor.Scenario) float64 {
	var elapsed time.Duration
	n := 0
	for _, tr := range traces {
		p.Reset()
		start := time.Now()
		res := rn.RunTrace(p, tr, sim.Options{Scenario: sc})
		elapsed += time.Since(start)
		n += int(res.Branches)
	}
	return perBranch(elapsed, n)
}

func perBranch(d time.Duration, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// runLadder runs rounds of every rung until budget has passed (at least
// three), then adds each layer's median cost to m and returns the ladder.
func runLadder(e *env, budget time.Duration, m metricSet) (ladderFile, error) {
	specs, err := namedSpecs(hotTraces, e.seed)
	if err != nil {
		return ladderFile{}, err
	}
	traces := make([]*trace.Trace, len(specs))
	for i, s := range specs {
		traces[i] = workload.Generate(s, e.sz.ladder)
	}
	models := ladderModels()
	buf := make([]trace.Branch, decodeBlock)
	concrete := tage.New(tage.Reference())

	var decode, ifaceGap []float64
	per := make([][]rungs, len(models))
	deadline := time.Now().Add(budget)
	for r := 0; r < 3 || (r < 25 && time.Now().Before(deadline)); r++ {
		decode = append(decode, decodeRung(traces, buf))
		for i, lm := range models {
			per[i] = append(per[i], lm.round(traces))
		}
		ifaceGap = append(ifaceGap, per[0][r].retireA-concreteRetireRung(concrete, traces, buf))
	}

	lf := ladderFile{Comment: ladderComment, Traces: hotTraces, Branches: e.sz.ladder, Rounds: len(decode)}
	dec := medianOf(decode)
	m.put("trace.decode_ns", "ns", dec)
	for i, lm := range models {
		rs := per[i]
		layer := func(f func(k int) float64) float64 {
			v := make([]float64, len(rs))
			for k := range rs {
				v[k] = f(k)
			}
			return medianOf(v)
		}
		rung := func(f func(r rungs) float64) float64 {
			return layer(func(k int) float64 { return f(rs[k]) })
		}
		predict := layer(func(k int) float64 { return rs[k].predict - decode[k] })
		resolve := layer(func(k int) float64 { return rs[k].resolve - rs[k].predict })
		retireA := layer(func(k int) float64 { return rs[k].retireA - rs[k].resolve })
		retireB := layer(func(k int) float64 { return rs[k].retireB - rs[k].resolve })
		pipeA := layer(func(k int) float64 { return rs[k].simA - rs[k].retireA })
		pipeB := layer(func(k int) float64 { return rs[k].simB - rs[k].retireB })
		total := rung(func(r rungs) float64 { return r.simA })

		p := "predictor." + lm.name
		m.put(p+".predict_ns", "ns", predict)
		m.put(p+".resolve_ns", "ns", resolve)
		m.put(p+".retire_A_ns", "ns", retireA)
		m.put(p+".retire_B_ns", "ns", retireB)
		m.put("sim."+lm.name+".pipeline_A_ns", "ns", pipeA)
		m.put("sim."+lm.name+".pipeline_B_ns", "ns", pipeB)
		m.put("sim."+lm.name+".total_A_ns", "ns", total)

		lf.Rows = append(lf.Rows,
			ladderRow{lm.name, "", 1, "decode", dec, dec},
			ladderRow{lm.name, "", 2, "predict", rung(func(r rungs) float64 { return r.predict }), predict},
			ladderRow{lm.name, "", 3, "resolve", rung(func(r rungs) float64 { return r.resolve }), resolve},
			ladderRow{lm.name, "A", 4, "retire", rung(func(r rungs) float64 { return r.retireA }), retireA},
			ladderRow{lm.name, "B", 4, "retire", rung(func(r rungs) float64 { return r.retireB }), retireB},
			ladderRow{lm.name, "A", 5, "pipeline", total, pipeA},
			ladderRow{lm.name, "B", 5, "pipeline", rung(func(r rungs) float64 { return r.simB }), pipeB},
		)
		sum := dec + predict + resolve + retireA + pipeA
		lf.Sums = append(lf.Sums, ladderSum{Model: lm.name, LayersNs: sum, TotalNs: total, Error: math.Abs(sum-total) / total})
	}
	m.put("predictor.tage.iface_ns", "ns", medianOf(ifaceGap))

	for _, sc := range []predictor.Scenario{predictor.ScenarioA, predictor.ScenarioB, predictor.ScenarioC} {
		st := tageAccessStats(traces, sc)
		m.put("tage.accesses_per_branch."+sc.Letter(), "accesses/branch", st.AccessesPerBranch())
		if sc != predictor.ScenarioC {
			m.put("tage.silent_ratio."+sc.Letter(), "ratio", st.SilentFraction())
		}
	}
	return lf, nil
}

func medianOf(v []float64) float64 {
	s := newStat(v, "")
	return s.Value
}

// tageAccessStats sums the reference TAGE's access accounting over the
// traces under one scenario. The counts are deterministic.
func tageAccessStats(traces []*trace.Trace, sc predictor.Scenario) memarray.Stats {
	p := tage.New(tage.Reference())
	var rn sim.Runner[tage.Ctx]
	var total memarray.Stats
	for _, tr := range traces {
		p.Reset()
		total.Add(rn.RunTrace(p, tr, sim.Options{Scenario: sc}).Access)
	}
	return total
}

// layerProbes measures the layers below a cell that the ladder does not:
// trace generation, pooled-runner construction and reset.
func layerProbes(e *env, m metricSet) error {
	named, err := namedSpecs(hotTraces, e.seed)
	if err != nil {
		return err
	}
	var gens []workload.Spec
	for _, s := range generatorSpecs(e.seed, 1) {
		spec, err := workload.ResolveSpec(s)
		if err != nil {
			return err
		}
		gens = append(gens, spec)
	}
	genNs := func(specs []workload.Spec) []float64 {
		return repeatTimed(3, func() {
			for _, s := range specs {
				workload.Generate(s, e.sz.ladder)
			}
		}, 1e9/float64(len(specs)*e.sz.ladder))
	}
	m.putSamples("workload.gen_ns.named", "ns", genNs(named))
	m.putSamples("workload.gen_ns.generator", "ns", genNs(gens))

	models, err := repro.BenchModels([]string{"tage"})
	if err != nil {
		return err
	}
	m.putSamples("repro.build_us.tage", "us", repeatTimed(5, func() { models[0].NewRunner() }, 1e6))
	empty := &trace.Trace{Name: "empty"}
	for _, d := range []int{-4, 0, 3} {
		run := models[0].Scale(d).NewRunner()
		run(empty, sim.Options{}) // the first run constructs; later ones Reset
		m.putSamples("repro.reset_us.tage."+deltaName(d), "us", repeatTimed(7, func() { run(empty, sim.Options{}) }, 1e6))
	}
	return nil
}

// deltaName spells a storage-budget exponent for a metric name:
// dm4, d0, dp3.
func deltaName(d int) string {
	switch {
	case d < 0:
		return fmt.Sprintf("dm%d", -d)
	case d > 0:
		return fmt.Sprintf("dp%d", d)
	}
	return "d0"
}

// checkpointProbe times Snapshot and Restore of a warmed TAGE-LSC scaled
// by 2^-2 and 2^+2, and sizes the blob.
func checkpointProbe(e *env, m metricSet) error {
	specs, err := namedSpecs(warmTraces[:1], e.seed)
	if err != nil {
		return err
	}
	tr := workload.Generate(specs[0], e.sz.ladder)
	for _, d := range []int{-2, 2} {
		p := composed.New(composed.TAGELSC(tage.Scale(composed.Budget512K(), d), "TAGE-LSC"))
		var rn sim.Runner[composed.Ctx]
		rn.RunTrace(p, tr, sim.Options{Scenario: predictor.ScenarioA})
		var blob []byte
		snap := repeatTimed(7, func() {
			enc := checkpoint.NewEncoder()
			p.Snapshot(enc)
			blob = enc.Blob()
		}, 1e6)
		var restoreErr error
		restore := repeatTimed(7, func() {
			dec := checkpoint.NewDecoder(blob)
			p.Restore(dec)
			if err := dec.Err(); err != nil {
				restoreErr = err
			}
		}, 1e6)
		if restoreErr != nil {
			return fmt.Errorf("restoring tage-lsc%+d: %w", d, restoreErr)
		}
		suffix := ".tage-lsc." + deltaName(d)
		m.putSamples("checkpoint.snapshot_us"+suffix, "us", snap)
		m.putSamples("checkpoint.restore_us"+suffix, "us", restore)
		m.put("checkpoint.blob_kb"+suffix, "KiB", float64(len(blob))/1024)
	}
	return nil
}

// Side predictors (Sections 5 and 6 of the paper): stacks the IUM, the
// loop predictor, the global Statistical Corrector and the Local
// Statistical Corrector on top of TAGE one at a time, showing each
// component's marginal contribution — and that the LSC captures most of
// what the loop predictor and global SC capture.
package main

import (
	"fmt"
	"io"

	"repro"
)

func main() {
	const branchesPerTrace = 150000
	stacks := []string{
		"tage",
		"tage-ium",
		"isl-tage", // + loop predictor + global SC
		"tage-lsc", // TAGE + IUM + LSC (budget-matched)
	}
	m, err := repro.NewBenchMatrix(stacks, nil, "A", []int{branchesPerTrace})
	if err != nil {
		panic(err)
	}
	recs := sweep(m)
	all := func(string) bool { return true }

	fmt.Println("predictor stack            MPPKI-sum    vs TAGE")
	var base float64
	for i, spec := range stacks {
		total := totalMPPKI(recs, spec, all)
		if i == 0 {
			base = total
		}
		fmt.Printf("%-26s %9.0f    %+.1f%%\n", label(spec), total, 100*(total-base)/base)
	}

	// Where does each side predictor earn its keep? Show the hard traces
	// (Section 2.2) separately.
	fmt.Println("\nper-subset comparison (ISL-TAGE vs TAGE-LSC):")
	hard := repro.HardTraces()
	isHard := func(tn string) bool { return hard[tn] }
	isEasy := func(tn string) bool { return !hard[tn] }
	for _, spec := range []string{"isl-tage", "tage-lsc"} {
		fmt.Printf("%-12s hard-7 MPPKI=%7.0f   easy-33 MPPKI=%7.0f\n",
			label(spec), totalMPPKI(recs, spec, isHard), totalMPPKI(recs, spec, isEasy))
	}
}

// label is a model's configuration label, e.g. "TAGE-LSC".
func label(spec string) string {
	m, err := repro.LookupModel(spec)
	if err != nil {
		panic(err)
	}
	return m.Name()
}

// sweep runs m on the harness and returns its cell records in expansion
// order: model, then trace in suite order.
func sweep(m *repro.BenchMatrix) []repro.BenchRecord {
	sink, err := repro.NewBenchSink("table", io.Discard)
	if err != nil {
		panic(err)
	}
	sum, err := repro.RunBench(m, repro.BenchConfig{NoAggregates: true}, sink)
	if err == nil && sum.Failed > 0 {
		err = fmt.Errorf("%d of %d cells failed", sum.Failed, sum.Jobs)
	}
	if err != nil {
		panic(err)
	}
	return sum.Records
}

// totalMPPKI sums one model's per-trace MPPKI over the traces keep
// selects, added in suite order.
func totalMPPKI(recs []repro.BenchRecord, model string, keep func(trace string) bool) float64 {
	t := 0.0
	for _, r := range recs {
		if r.Model == model && keep(r.Trace) {
			t += r.MPPKI
		}
	}
	return t
}

// Delayed update (Section 4 of the paper): compares the four update-timing
// scenarii — [I] oracle immediate, [A] re-read at retire, [B] fetch-read
// only, [C] re-read on mispredictions — across gshare, GEHL and TAGE, and
// prints the access statistics that motivate single-ported implementation:
// TAGE barely suffers from skipping the retire-time read, the others do.
package main

import (
	"fmt"
	"io"

	"repro"
)

func main() {
	const branchesPerTrace = 200000
	scenarios := []repro.Scenario{
		repro.ScenarioI, repro.ScenarioA, repro.ScenarioB, repro.ScenarioC,
	}
	specs := []string{"gshare", "gehl", "tage"}

	// One sweep: every model under every scenario over the 40 traces.
	m, err := repro.NewBenchMatrix(specs, nil, "I,A,B,C", []int{branchesPerTrace})
	if err != nil {
		panic(err)
	}
	recs := sweep(m)

	fmt.Printf("%-14s", "predictor")
	for _, sc := range scenarios {
		fmt.Printf("  %8s", sc.String())
	}
	fmt.Printf("  %10s\n", "[B] vs [I]")

	for _, spec := range specs {
		mdl, err := repro.LookupModel(spec)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-14s", mdl.Name())
		var base, scenB float64
		for _, sc := range scenarios {
			total, _ := suiteTotals(recs, spec, sc)
			if sc == repro.ScenarioI {
				base = total
			}
			if sc == repro.ScenarioB {
				scenB = total
			}
			fmt.Printf("  %8.0f", total)
		}
		fmt.Printf("  %+9.1f%%\n", 100*(scenB-base)/base)
	}

	// Access counts under scenario C with silent-update elimination: the
	// Section 4.2 argument for single-ported banked tables.
	_, acc := suiteTotals(recs, "tage", repro.ScenarioC)
	fmt.Printf("\nTAGE under [C]: %.3f predictor accesses per retired branch\n",
		acc.AccessesPerBranch())
	fmt.Printf("silent updates eliminated: %.1f%% of update attempts\n",
		100*acc.SilentFraction())
}

// sweep runs m on the harness and returns its cell records in expansion
// order: model, then trace in suite order, then scenario.
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

// suiteTotals sums one model's per-trace MPPKI and predictor accesses
// under one scenario over the suite, added in suite order.
func suiteTotals(recs []repro.BenchRecord, model string, sc repro.Scenario) (mppki float64, acc repro.AccessStats) {
	for _, r := range recs {
		if r.Model == model && r.Scenario == sc.Letter() {
			mppki += r.MPPKI
			acc.Add(r.Access)
		}
	}
	return mppki, acc
}

// Cost-effective implementation (Sections 4.3 and 7 of the paper): the
// TAGE-LSC predictor with 4-way bank-interleaved single-ported tables,
// with and without the retire-time read, plus the area/energy argument
// from the analytical SRAM model.
package main

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/cactimodel"
)

func main() {
	const branchesPerTrace = 150000

	// One sweep over the 40 traces: the flat TAGE-LSC under [A], the
	// banked one under [A], [B] and [C].
	m, err := repro.NewBenchMatrix([]string{"tage-lsc", "tage-lsc-banked"}, nil, "A,B,C", []int{branchesPerTrace})
	if err != nil {
		panic(err)
	}
	m.Exclude = []string{"tage-lsc/*/[BC]/*"}
	recs := sweep(m)

	flat := totalMPPKI(recs, "tage-lsc", "A")
	inter := totalMPPKI(recs, "tage-lsc-banked", "A")
	interC := totalMPPKI(recs, "tage-lsc-banked", "C")
	interB := totalMPPKI(recs, "tage-lsc-banked", "B")

	fmt.Println("TAGE-LSC 512Kbit configuration            MPPKI-sum")
	fmt.Printf("3-ported tables, re-read at retire [A]     %8.0f\n", flat)
	fmt.Printf("4-way banked single-ported [A]             %8.0f  (%+.1f%%)\n", inter, 100*(inter-flat)/flat)
	fmt.Printf("banked + no retire read if correct [C]     %8.0f  (%+.1f%%)\n", interC, 100*(interC-flat)/flat)
	fmt.Printf("banked + never re-read [B]                 %8.0f  (%+.1f%%)  <- not recommended\n", interB, 100*(interB-flat)/flat)

	// The silicon argument (CACTI-style model, Section 4.3 / 7.1).
	c := cactimodel.Compare(512 * 1024)
	fmt.Printf("\nSRAM model at 512Kbit capacity:\n")
	fmt.Printf("  3-port vs 1-port area:   %.2fx   energy/access: %.2fx\n",
		c.AreaRatio3v1, c.EnergyRatio3v1)
	fmt.Printf("  3-port vs 4x1-port bank: %.2fx   energy/access: %.2fx\n",
		c.AreaRatioMonoVsBanked, c.EnergyRatioMonoVsBanked)
	fmt.Println("\nbanked single-ported tables keep the accuracy and cut the predictor")
	fmt.Println("to ~30% of the silicon and ~50% of the access energy (Section 7).")
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

// totalMPPKI is the suite MPPKI the paper reports: the sum of one
// model's per-trace MPPKI under one scenario, added in suite order.
func totalMPPKI(recs []repro.BenchRecord, model, scenario string) float64 {
	t := 0.0
	for _, r := range recs {
		if r.Model == model && r.Scenario == scenario {
			t += r.MPPKI
		}
	}
	return t
}

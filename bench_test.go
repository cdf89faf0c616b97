package repro

import (
	"testing"

	"repro/internal/experiments"
)

// Each table/figure of the paper's evaluation has one benchmark that
// regenerates it (the E1..E15 index of experiments.Registry). Benchmarks
// run the experiment harness at a reduced per-trace scale so `go test
// -bench=.` completes in minutes; cmd/bptables runs the same code at full
// scale.
const benchBranchesPerTrace = 25000

func benchExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	cfg := experiments.Config{BranchesPerTrace: benchBranchesPerTrace}
	for i := 0; i < b.N; i++ {
		e, ok := experiments.Lookup(id)
		if !ok {
			b.Fatalf("unknown experiment %s", id)
		}
		rep := e.Run(cfg)
		if len(rep.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkE1SilentUpdates regenerates §4.1.1 (writes per misprediction).
func BenchmarkE1SilentUpdates(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Scenarios regenerates §4.1.2 (scenario MPPKI table).
func BenchmarkE2Scenarios(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3Interleaving regenerates §4.3 (banked TAGE + CACTI ratios).
func BenchmarkE3Interleaving(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4IUM regenerates §5.1 (IUM recovery).
func BenchmarkE4IUM(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Loop regenerates §5.2 (loop predictor gain).
func BenchmarkE5Loop(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6SC regenerates §5.3 (Statistical Corrector gain).
func BenchmarkE6SC(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7ISLTAGE regenerates §5.4 (ISL-TAGE vs 2Mbit TAGE).
func BenchmarkE7ISLTAGE(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8LSC regenerates §6.1 (LSC gains and subsumption).
func BenchmarkE8LSC(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Budget regenerates §6.1 (512Kbit budget match).
func BenchmarkE9Budget(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Robustness regenerates §6.2 (history-series sweep).
func BenchmarkE10Robustness(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Fig9Scaling regenerates Figure 9 (128Kb..32Mb sweep).
func BenchmarkE11Fig9Scaling(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Fig10Hard regenerates Figure 10 (TAGE family vs neural).
func BenchmarkE12Fig10Hard(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13LSCInterleave regenerates §7.1 (interleaved TAGE-LSC).
func BenchmarkE13LSCInterleave(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14CostEffective regenerates §7.2 (retire-read elimination).
func BenchmarkE14CostEffective(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15Characterization regenerates §2.2 (benchmark set split).
func BenchmarkE15Characterization(b *testing.B) { benchExperiment(b, "E15") }

// --- predictor micro-benchmarks: cost of one predicted branch ---

func benchPredictor(b *testing.B, mk func() *Model) {
	b.ReportAllocs()
	tr := MustGenerateTrace("INT04", 100000)
	m := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(tr.Branches) {
		m.Run(tr, Options{Scenario: ScenarioA})
	}
}

// BenchmarkTAGEPerBranch measures the reference TAGE per-branch cost.
func BenchmarkTAGEPerBranch(b *testing.B) { benchPredictor(b, ReferenceTAGE) }

// BenchmarkTAGELSCPerBranch measures the full TAGE-LSC per-branch cost.
func BenchmarkTAGELSCPerBranch(b *testing.B) { benchPredictor(b, TAGELSC512K) }

// BenchmarkISLTAGEPerBranch measures the ISL-TAGE per-branch cost.
func BenchmarkISLTAGEPerBranch(b *testing.B) { benchPredictor(b, ISLTAGE) }

// BenchmarkGsharePerBranch measures the gshare per-branch cost.
func BenchmarkGsharePerBranch(b *testing.B) { benchPredictor(b, Gshare512K) }

// BenchmarkGEHLPerBranch measures the GEHL per-branch cost.
func BenchmarkGEHLPerBranch(b *testing.B) { benchPredictor(b, GEHL520K) }

// BenchmarkTraceGeneration measures synthetic workload synthesis.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustGenerateTrace("SERVER03", 100000)
	}
}

package repro

import (
	"bytes"
	"io"
	"testing"
)

func TestModelsInstantiate(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := LookupModel(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() == "" {
			t.Errorf("%s: empty name", name)
		}
		if m.StorageBits() <= 0 {
			t.Errorf("%s: no storage", name)
		}
	}
}

func TestModelBudgets(t *testing.T) {
	// The paper's 512Kbit-class configurations must be near (and the
	// composite ones within) the CBP-3 budget.
	for _, mk := range []func() *Model{ReferenceTAGE, TAGELSC512K, ISLTAGE, Gshare512K, GEHL520K} {
		m := mk()
		kb := m.StorageBits() / 1024
		if kb < 400 || kb > 560 {
			t.Errorf("%s: %d Kbit outside the 512Kbit class", m.Name(), kb)
		}
	}
	// The budgets the paper states exactly: the §3.4 reference TAGE is
	// 523,264 bits (65,408 bytes), the §6.1 TAGE-LSC fits 512 Kbits, and
	// the §4.1 gshare is 2^18 2-bit counters.
	for name, want := range map[string]int{"tage": 523264, "tage-lsc": 522208, "gshare": 524288} {
		m, err := LookupModel(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := m.StorageBits(); got != want {
			t.Errorf("%s: %d storage bits, want %d", name, got, want)
		}
	}
}

func TestSessionLearns(t *testing.T) {
	s := ReferenceTAGE().NewSession()
	wrong := 0
	for i := 0; i < 500; i++ {
		taken := i%3 != 0
		if s.Predict(0x40) != taken && i > 250 {
			wrong++
		}
		s.Train(0x40, taken)
	}
	if wrong > 10 {
		t.Fatalf("session failed to learn a period-3 pattern: %d late mispredicts", wrong)
	}
}

func TestSessionTrainWithoutPredict(t *testing.T) {
	s := Gshare512K().NewSession()
	// Train without a preceding Predict must not panic and must learn.
	// gshare's index depends on the global history register, so training
	// must continue past the history length (18) for the index to settle.
	for i := 0; i < 25; i++ {
		s.Train(0x80, true)
	}
	if !s.Predict(0x80) {
		t.Fatal("did not learn an always-taken branch")
	}
}

func TestRunIsColdPerCall(t *testing.T) {
	m := ReferenceTAGE()
	tr := MustGenerateTrace("WS01", 30000)
	a := m.Run(tr, Options{Scenario: ScenarioA})
	b := m.Run(tr, Options{Scenario: ScenarioA})
	if a.Mispredicts != b.Mispredicts {
		t.Fatalf("Run must start cold: %d vs %d mispredicts", a.Mispredicts, b.Mispredicts)
	}
}

func TestTraceNamesComplete(t *testing.T) {
	names := TraceNames()
	if len(names) != 40 {
		t.Fatalf("got %d trace names", len(names))
	}
	hard := HardTraces()
	if len(hard) != 7 {
		t.Fatalf("got %d hard traces", len(hard))
	}
	for h := range hard {
		found := false
		for _, n := range names {
			if n == h {
				found = true
			}
		}
		if !found {
			t.Fatalf("hard trace %s not in TraceNames", h)
		}
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	tr := MustGenerateTrace("CLIENT01", 5000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Branches) != len(tr.Branches) || back.Name != tr.Name {
		t.Fatal("round trip mismatch")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 15 {
		t.Fatalf("got %d experiments, want 15", len(ids))
	}
	if _, ok := RunExperiment("E99", ExperimentConfig{}); ok {
		t.Fatal("unknown experiment id must not resolve")
	}
}

// TestAccuracyOrderingSmall is the headline sanity check at reduced scale:
// TAGE-LSC <= ISL-TAGE <= TAGE <= GEHL <= gshare on the suite.
func TestAccuracyOrderingSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("suite simulation in -short mode")
	}
	const n = 60000
	m, err := NewBenchMatrix([]string{"tage-lsc", "isl-tage", "tage", "gehl", "gshare"}, nil, "A", []int{n})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewBenchSink("jsonl", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RunBench(m, BenchConfig{NoAggregates: true}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 5*40 || sum.Failed != 0 {
		t.Fatalf("summary: %d jobs, %d failed", sum.Jobs, sum.Failed)
	}
	suite := map[string]float64{}
	for _, r := range sum.Records {
		suite[r.Model] += r.MPPKI
	}
	tagelsc, isl, tage, gehl, gsh := suite["tage-lsc"], suite["isl-tage"], suite["tage"], suite["gehl"], suite["gshare"]
	if !(tagelsc < isl && isl < tage && tage < gehl && gehl < gsh) {
		t.Fatalf("ordering violated: TAGE-LSC=%.0f ISL=%.0f TAGE=%.0f GEHL=%.0f gshare=%.0f",
			tagelsc, isl, tage, gehl, gsh)
	}
}

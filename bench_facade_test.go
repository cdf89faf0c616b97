package repro

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/models"
)

func TestBenchFacadeEndToEnd(t *testing.T) {
	m, err := NewBenchMatrix([]string{"gshare"}, []string{"INT0[12]"}, "A,B", []int{1500})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink, err := NewBenchSink("jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RunBench(m, BenchConfig{Parallelism: 4}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 4 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	recs, err := harness.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 4 cells + (INT category, hard, suite) per scenario group.
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	// A self-diff of the run must be clean.
	rep := harness.Diff(recs, recs, harness.DiffOptions{})
	if rep.HasRegressions() || rep.Cells != 4 {
		t.Fatalf("self-diff = %+v", rep)
	}
}

func TestBenchModelsResolveAndReject(t *testing.T) {
	ms, err := BenchModels([]string{"tage", "gshare"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Name != "tage" || ms[0].StorageBits <= 0 || ms[0].Run == nil {
		t.Fatalf("models = %+v", ms)
	}
	if _, err := BenchModels([]string{"tage", "bogus"}); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := NewBenchMatrix([]string{"tage"}, nil, "A", nil); err == nil {
		t.Fatal("missing lengths must error")
	}
}

func TestScaledModelNameFormatting(t *testing.T) {
	// ScaledTAGE's deltaLog suffix is the Figure 9 label users see in
	// tables and stores; pin the format.
	for _, tc := range []struct {
		d    int
		want string
	}{{-4, "TAGE-ref-4"}, {0, "TAGE-ref+0"}, {3, "TAGE-ref+3"}} {
		if got := ScaledTAGE(tc.d).Name(); got != tc.want {
			t.Errorf("ScaledTAGE(%d).Name() = %q, want %q", tc.d, got, tc.want)
		}
	}
	if got := ScaledTAGELSC(-2).Name(); got != "TAGE-LSC-2" {
		t.Errorf("ScaledTAGELSC(-2).Name() = %q", got)
	}
	// deltaLog 0 keeps each model's declared budget.
	if a, b := ScaledTAGE(0).StorageBits(), ReferenceTAGE().StorageBits(); a != b {
		t.Errorf("ScaledTAGE(0) budget %d != reference %d", a, b)
	}
}

func TestBenchModelsScaleHook(t *testing.T) {
	// A spec that already carries a delta has no hook of its own.
	ms, err := BenchModels([]string{"tage", "tage-lsc", "gshare", "tage@+1"})
	if err != nil {
		t.Fatal(err)
	}
	scalables := map[string]bool{}
	for _, name := range models.ScalableNames() {
		scalables[name] = true
	}
	for _, m := range ms {
		scalable := scalables[m.Name]
		if (m.Scale != nil) != scalable {
			t.Errorf("%s: Scale hook presence %v, want %v", m.Name, m.Scale != nil, scalable)
		}
	}
	// The hook scales real budgets: +1 doubles (within rounding), -1 halves.
	tage := ms[0]
	up, down := tage.Scale(1), tage.Scale(-1)
	if up.StorageBits <= tage.StorageBits || down.StorageBits >= tage.StorageBits {
		t.Errorf("budgets not ordered: -1:%d 0:%d +1:%d",
			down.StorageBits, tage.StorageBits, up.StorageBits)
	}
	if up.Run == nil || down.Run == nil {
		t.Error("scaled models must be runnable")
	}
}

func TestModelNamesSortedAndComplete(t *testing.T) {
	names := ModelNames()
	if len(names) != 9 {
		t.Fatalf("ModelNames covers %d of the 9 named models", len(names))
	}
	if !strings.HasPrefix(names[0], "ftlpp") {
		t.Fatalf("names not sorted: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

// TestDeltaAxisRefusesSpecsWithADelta: expanding a budget axis over a
// spec that already carries a delta is an error for every caller, not a
// cell "tage@+1@+2" that measures tage@+2 under a name no parser reads.
func TestDeltaAxisRefusesSpecsWithADelta(t *testing.T) {
	m, err := NewBenchMatrix([]string{"tage@+1", "tage"}, []string{"INT01"}, "A", []int{1000})
	if err != nil {
		t.Fatal(err)
	}
	m.DeltaLogs = []int{1, 2}
	if _, err := m.Expand(); err == nil || !strings.Contains(err.Error(), "already carries a storage delta") {
		t.Fatalf("expanding tage@+1 over a delta axis: %v", err)
	}
}

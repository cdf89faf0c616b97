package workload

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

func TestAllHas40Benchmarks(t *testing.T) {
	specs := All()
	if len(specs) != 40 {
		t.Fatalf("got %d benchmarks, want 40", len(specs))
	}
	cats := map[string]int{}
	hard := 0
	names := map[string]bool{}
	for _, s := range specs {
		cats[s.Category]++
		if s.Hard {
			hard++
		}
		if names[s.Name] {
			t.Fatalf("duplicate name %s", s.Name)
		}
		names[s.Name] = true
	}
	for _, c := range []string{"CLIENT", "INT", "MM", "SERVER", "WS"} {
		if cats[c] != 8 {
			t.Fatalf("category %s has %d traces, want 8", c, cats[c])
		}
	}
	if hard != 7 {
		t.Fatalf("hard subset = %d traces, want 7", hard)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := Find("INT03")
	a := Generate(spec, 5000)
	b := Generate(spec, 5000)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	if !slices.Equal(slices.Collect(a.Branches()), slices.Collect(b.Branches())) {
		t.Fatal("branches differ")
	}
}

func TestGenerateRespectsLimit(t *testing.T) {
	for _, name := range []string{"CLIENT01", "MM02", "SERVER05"} {
		tr, err := GenerateByName(name, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 2000 {
			t.Fatalf("%s: got %d branches", name, tr.Len())
		}
	}
}

func TestGenerateUnknownName(t *testing.T) {
	if _, err := GenerateByName("NOPE", 10); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestTracesHaveBothDirections(t *testing.T) {
	for _, s := range All() {
		tr := Generate(s, 3000)
		st := trace.Summarize(tr)
		if st.TakenFraction < 0.05 || st.TakenFraction > 0.95 {
			t.Errorf("%s: taken fraction %.2f is degenerate", s.Name, st.TakenFraction)
		}
	}
}

func TestServerHasLargeFootprint(t *testing.T) {
	trS, _ := GenerateByName("SERVER08", 50000)
	trM, _ := GenerateByName("MM01", 50000)
	sS := trace.Summarize(trS)
	sM := trace.Summarize(trM)
	if sS.StaticBranches <= sM.StaticBranches {
		t.Fatalf("SERVER should have a larger footprint: %d vs %d",
			sS.StaticBranches, sM.StaticBranches)
	}
	if sS.StaticBranches < 100 {
		t.Fatalf("SERVER footprint too small: %d", sS.StaticBranches)
	}
}

func TestCategoriesDistinct(t *testing.T) {
	// Different benchmarks must produce different streams.
	a, _ := GenerateByName("WS01", 2000)
	b, _ := GenerateByName("WS02", 2000)
	same := 0
	bs := slices.Collect(b.Branches())
	i := 0
	for x := range a.Branches() {
		if y := bs[i]; x.PC == y.PC && x.Taken == y.Taken {
			same++
		}
		i++
	}
	if same > 1500 {
		t.Fatalf("WS01 and WS02 nearly identical: %d/2000 equal", same)
	}
}

func TestEnvRecentRing(t *testing.T) {
	e := newEnv(rng.NewXoshiro(1))
	e.push(true)
	e.push(false)
	e.push(true)
	if !e.bit(0) || e.bit(1) || !e.bit(2) {
		t.Fatal("recent ring order wrong")
	}
}

func TestPatternZooCycles(t *testing.T) {
	z := newPatternZoo(rng.NewXoshiro(3), 4, 8)
	// Collect two full cycles; they must match exactly.
	var first, second []bool
	for i := 0; i < 4*8; i++ {
		first = append(first, z.next(nil))
	}
	for i := 0; i < 4*8; i++ {
		second = append(second, z.next(nil))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("zoo not periodic at %d", i)
		}
	}
}

func TestMajorityBehavior(t *testing.T) {
	e := newEnv(rng.NewXoshiro(5))
	for i := 0; i < 10; i++ {
		e.push(true)
	}
	m := &majority{window: 9, noise: 0, r: rng.NewXoshiro(1)}
	if !m.next(e) {
		t.Fatal("majority of all-taken must be taken")
	}
	for i := 0; i < 10; i++ {
		e.push(false)
	}
	if m.next(e) {
		t.Fatal("majority of all-not-taken must be not-taken")
	}
}

func TestCopyDistBehavior(t *testing.T) {
	e := newEnv(rng.NewXoshiro(5))
	e.push(true)
	e.push(false)
	e.push(false)
	c := copyDist{dist: 2}
	// bit(2) is the outcome two branches back = true.
	if !c.next(e) {
		t.Fatal("copyDist must copy the outcome at its distance")
	}
}

func TestOpsBeforeDeterministicPerPC(t *testing.T) {
	tr, _ := GenerateByName("CLIENT03", 20000)
	ops := map[uint64]uint8{}
	for b := range tr.Branches() {
		if prev, ok := ops[b.PC]; ok && prev != b.OpsBefore {
			t.Fatalf("PC %#x has varying OpsBefore", b.PC)
		}
		ops[b.PC] = b.OpsBefore
	}
}

func TestSelectGlobs(t *testing.T) {
	all, err := Select(nil)
	if err != nil || len(all) != 40 {
		t.Fatalf("Select(nil) = %d specs, err=%v", len(all), err)
	}
	hard, err := Select([]string{"INT0[12]", "MM05", "INT01"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"INT01", "INT02", "MM05"}
	if len(hard) != len(want) {
		t.Fatalf("selected %d specs, want %d", len(hard), len(want))
	}
	for i, s := range hard {
		if s.Name != want[i] {
			t.Fatalf("selection[%d] = %s, want %s (suite order, deduplicated)", i, s.Name, want[i])
		}
	}
	if _, err := Select([]string{"ZZZ*"}); err == nil {
		t.Fatal("no-match pattern must error")
	}
	if _, err := Select([]string{"[oops"}); err == nil {
		t.Fatal("malformed pattern must error")
	}
}

// TestGenerateAllocatesTwoBytesABranch: a generated trace is stored as
// one 16-bit word a branch plus a table of its static branches, so
// generating INT01 at 1M branches allocates about 2 MB (16 MB as a
// []trace.Branch).
func TestGenerateAllocatesTwoBytesABranch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	spec, _ := Find("INT01")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := Generate(spec, 1_000_000)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2_500_000 {
		t.Fatalf("Generate(INT01, 1M) allocated %d bytes, want < 2.5 MB", n)
	}
	if tr.Len() != 1_000_000 {
		t.Fatalf("generated %d branches", tr.Len())
	}
}

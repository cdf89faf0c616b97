package repro

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/workload"
)

// --- round-trip property ---

// randSpec assembles a random valid spec string (possibly non-canonical:
// shuffled field order, "true"/"false" booleans, unsigned deltas are not
// generated — those are covered by explicit cases).
func randSpec(r *rand.Rand) string {
	kinds := []string{"tage", "gshare", "gehl", "composed"}
	kind := kinds[r.Intn(len(kinds))]
	var fields []string
	pick := func(key string, vals ...string) {
		if r.Intn(2) == 0 {
			fields = append(fields, key+"="+vals[r.Intn(len(vals))])
		}
	}
	switch kind {
	case "tage":
		pick("tables", "1", "4", "9", "12", "16")
		pick("log", "6", "10", "12")
		pick("tag", "4", "8", "12", "16")
		pick("hist", "1:2", "4:100", "6:2000")
		pick("bim", "8", "12", "15")
		pick("alloc", "1", "2", "4")
		pick("ium", "0", "1")
		pick("banked", "0", "1")
		pick("seed", "0", "12345")
	case "gshare":
		pick("log", "8", "14", "20")
	case "gehl":
		pick("tables", "2", "5", "13")
		pick("log", "6", "10", "13")
		pick("ctr", "2", "5", "8")
		pick("hist", "2:50", "6:2000")
	case "composed":
		pick("tables", "4", "10", "12")
		pick("log", "7", "11")
		pick("tag", "5", "11")
		pick("hist", "3:300")
		pick("seed", "7")
	}
	r.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	s := kind + ":"
	if kind == "composed" {
		parts := []string{"tage"}
		for _, p := range []string{"ium", "loop", "gsc", "lsc"} {
			if r.Intn(2) == 0 {
				parts = append(parts, p)
			}
		}
		s += strings.Join(parts, "+")
		if len(fields) > 0 {
			s += ","
		}
	} else if len(fields) == 0 {
		// A parameterised kind needs at least one field; fall back.
		s += "log=10"
		fields = nil
	}
	s += strings.Join(fields, ",")
	if r.Intn(3) == 0 {
		s += fmt.Sprintf("@%+d", r.Intn(7)-3)
	}
	return s
}

// TestSpecCanonicalRoundTrip: for random valid specs,
// ParseSpec(s.Canonical()) is the identity — the canonical form parses
// back to itself, byte for byte.
func TestSpecCanonicalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20260727))
	for i := 0; i < 2000; i++ {
		raw := randSpec(r)
		spec, err := ParseSpec(raw)
		if err != nil {
			t.Fatalf("generated spec %q failed to parse: %v", raw, err)
		}
		canon := spec.Canonical()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical %q (of %q) failed to parse: %v", canon, raw, err)
		}
		if got := again.Canonical(); got != canon {
			t.Fatalf("round trip not identity: %q -> %q -> %q", raw, canon, got)
		}
	}
}

// TestNamedSpecsRoundTrip: every named model (with and without a delta
// where scalable) is its own canonical form.
func TestNamedSpecsRoundTrip(t *testing.T) {
	for _, name := range ModelNames() {
		spec, err := ParseSpec(name)
		if err != nil {
			t.Fatalf("named model %q failed to parse as a spec: %v", name, err)
		}
		if !spec.IsNamed() || spec.Canonical() != name {
			t.Fatalf("named model %q canonicalises to %q", name, spec.Canonical())
		}
	}
	for _, name := range models.ScalableNames() {
		s := name + "@+2"
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("scaled named model %q: %v", s, err)
		}
		if spec.Canonical() != s {
			t.Fatalf("scaled named model %q canonicalises to %q", s, spec.Canonical())
		}
		if d, ok := spec.Delta(); !ok || d != 2 {
			t.Fatalf("scaled named model %q: delta %d, %v", s, d, ok)
		}
	}
}

// runShort simulates a model over a short trace and returns the fields a
// config-equality check cares about (timing excluded).
func runShort(t *testing.T, m *Model) [4]float64 {
	t.Helper()
	tr := MustGenerateTrace("INT01", 4000)
	res := m.Run(tr, Options{Scenario: ScenarioA})
	return [4]float64{res.MPKI, res.MPPKI, float64(res.Mispredicts), float64(res.MicroOps)}
}

// TestExplicitSpecsMatchSugar: the parameterised kinds with their
// defaults rebuild the corresponding named models bit for bit — the
// sugar and the explicit grammar describe the same predictors.
func TestExplicitSpecsMatchSugar(t *testing.T) {
	pairs := [][2]string{
		{"tage:tables=12", "tage"},
		{"gshare:log=18", "gshare"},
		{"gehl:tables=13", "gehl"},
		{"composed:tage+ium+loop+gsc", "isl-tage"},
		{"composed:tage+ium", "tage-ium"},
	}
	for _, p := range pairs {
		explicit, err := LookupModel(p[0])
		if err != nil {
			t.Fatalf("%s: %v", p[0], err)
		}
		sugar, err := LookupModel(p[1])
		if err != nil {
			t.Fatalf("%s: %v", p[1], err)
		}
		if explicit.StorageBits() != sugar.StorageBits() {
			t.Fatalf("%s vs %s: %d bits vs %d bits", p[0], p[1], explicit.StorageBits(), sugar.StorageBits())
		}
		if got, want := runShort(t, explicit), runShort(t, sugar); got != want {
			t.Fatalf("%s result %v, %s result %v", p[0], want, p[1], got)
		}
	}
}

// TestSpecErrorsNameTheBadField: malformed specs must produce actionable
// errors naming the offending field or component.
func TestSpecErrorsNameTheBadField(t *testing.T) {
	cases := []struct {
		spec string
		want []string // substrings the error must contain
	}{
		{"", []string{"empty"}},
		{"nope", []string{"nope", "tage"}},
		{"foo:log=3", []string{"foo", "tage, gshare, gehl, composed"}},
		{"tage:", []string{"empty parameter list"}},
		{"tage:bogus=1", []string{"bogus", "tables"}},
		{"tage:tables=99", []string{"tables", "out of range"}},
		{"tage:tables=x", []string{"tables", "not an integer"}},
		{"tage:hist=2000", []string{"hist", "min:max"}},
		{"tage:hist=9:4", []string{"hist", "invalid"}},
		{"tage:ium=maybe", []string{"ium", "boolean"}},
		{"tage:tables=4,tables=5", []string{"tables", "twice"}},
		{"tage:tables=4,,log=7", []string{"empty field"}},
		{"tage:tables", []string{"key=value"}},
		{"gshare:log=40", []string{"log", "out of range"}},
		{"composed:", []string{"component stack"}},
		{"composed:loop", []string{"tage"}},
		{"composed:tage+warp", []string{"warp", "ium, loop, gsc, lsc"}},
		{"composed:tage+ium+ium", []string{"duplicate", "ium"}},
		{"tage@2x", []string{"delta"}},
		{"tage@", []string{"delta"}},
		{"ohsnap@+1", []string{"ohsnap", "storage delta"}},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.spec)
		if err == nil {
			t.Fatalf("spec %q: expected error", c.spec)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("spec %q: error %q does not mention %q", c.spec, err, w)
			}
		}
	}
}

// TestSpecWithFieldAndDelta covers the rewriting primitives behind
// `bpbench -sweep` and the deltaLog axis.
func TestSpecWithFieldAndDelta(t *testing.T) {
	base, err := ParseSpec("tage")
	if err != nil {
		t.Fatal(err)
	}
	swept, err := base.WithField("tables", "9")
	if err != nil {
		t.Fatal(err)
	}
	if got := swept.Canonical(); got != "tage:tables=9" {
		t.Fatalf("WithField canonical %q", got)
	}
	scaled, err := swept.WithDelta(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := scaled.Canonical(); got != "tage:tables=9@+2" {
		t.Fatalf("WithDelta canonical %q", got)
	}
	// WithDelta validates scalability, so every derived spec's canonical
	// form stays parseable.
	ohsnap, err := ParseSpec("ohsnap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ohsnap.WithDelta(1); err == nil || !strings.Contains(err.Error(), "storage delta") {
		t.Fatalf("WithDelta on non-scalable named model: %v", err)
	}
	// Field order stays canonical regardless of set order.
	s2, err := swept.WithField("hist", "6:500")
	if err != nil {
		t.Fatal(err)
	}
	s3, err := s2.WithField("tables", "7")
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.Canonical(); got != "tage:tables=7,hist=6:500" {
		t.Fatalf("rewritten canonical %q", got)
	}
	// Named models without a parameterised kind of their own refuse
	// field rewriting with a hint at the explicit spelling.
	lsc, err := ParseSpec("tage-lsc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lsc.WithField("tables", "9"); err == nil || !strings.Contains(err.Error(), "composed:") {
		t.Fatalf("tage-lsc WithField error: %v", err)
	}
	// Sweeping validates values like parsing does.
	if _, err := base.WithField("tables", "99"); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range sweep value error: %v", err)
	}
	if _, err := base.WithField("warp", "1"); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Fatalf("unknown sweep field error: %v", err)
	}
}

// TestSweepSpecs covers the -sweep expansion (models.SweepSpecs).
func TestSweepSpecs(t *testing.T) {
	out, err := models.SweepSpecs([]string{"tage:tables=13"}, "tables", []string{"11", "12", "13"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"tage:tables=11", "tage:tables=12", "tage:tables=13"}
	if len(out) != len(want) {
		t.Fatalf("sweep produced %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("sweep produced %v, want %v", out, want)
		}
	}
	if _, err := models.SweepSpecs([]string{"tage", "tage:log=11"}, "log", []string{"11"}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate sweep error: %v", err)
	}
}

// TestSplitSpecList: the comma-separated model list splits at spec
// boundaries, not at every comma, so multi-field specs survive flag
// transport.
func TestSplitSpecList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"tage,gshare", []string{"tage", "gshare"}},
		{"tage:tables=9,hist=6:500,gshare:log=14", []string{"tage:tables=9,hist=6:500", "gshare:log=14"}},
		{"composed:tage+ium+lsc,tables=10,tage@+2", []string{"composed:tage+ium+lsc,tables=10", "tage@+2"}},
		{"tage-lsc@+1,tage:log=11,tag=8", []string{"tage-lsc@+1", "tage:log=11,tag=8"}},
		{" tage , gehl:tables=5,ctr=4 ", []string{"tage", "gehl:tables=5,ctr=4"}},
		{"hist=6:500", []string{"hist=6:500"}}, // not a spec start: one (bad) spec for ParseSpec to reject
		{"", nil},
	}
	for _, c := range cases {
		got := models.SplitList(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("SplitList(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("SplitList(%q) = %v, want %v", c.in, got, c.want)
			}
		}
		// Every produced segment must round-trip through the matrix
		// builder or fail with a spec error — never silently vanish.
	}
	if _, err := BenchModels(models.SplitList("tage:tables=9,hist=6:500,gshare:log=14")); err != nil {
		t.Fatalf("split specs failed to build: %v", err)
	}
}

// TestSpecBuildArbitrary: a handful of non-named specs build and run.
func TestSpecBuildArbitrary(t *testing.T) {
	for _, s := range []string{
		"tage:tables=9",
		"tage:tables=1,log=6,tag=4,hist=1:2,bim=8,alloc=1",
		"tage:tables=13,hist=6:2000,tag=12",
		"gshare:log=12",
		"gehl:tables=4,log=8,ctr=3,hist=2:40",
		"composed:tage+ium+lsc,tables=10",
		"composed:tage+ium+loop+gsc+lsc,log=9",
		"tage:tables=9@+1",
		"gshare:log=12@-2",
	} {
		m, err := LookupModel(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if m.StorageBits() <= 0 {
			t.Fatalf("%s: storage %d", s, m.StorageBits())
		}
		tr := MustGenerateTrace("INT01", 2000)
		res := m.Run(tr, Options{Scenario: ScenarioA})
		if res.Branches == 0 {
			t.Fatalf("%s: simulated 0 branches", s)
		}
	}
	// Scaling a gshare spec moves its storage by the expected power of two.
	base, _ := LookupModel("gshare:log=12")
	up, _ := LookupModel("gshare:log=12@+2")
	if up.StorageBits() != base.StorageBits()<<2 {
		t.Fatalf("gshare @+2 storage %d, want %d", up.StorageBits(), base.StorageBits()<<2)
	}
}

// TestBenchModelsSpecThreading: harness models built from specs carry
// the canonical spec as both name and spec, and reject duplicate
// canonical forms.
func TestBenchModelsSpecThreading(t *testing.T) {
	ms, err := BenchModels([]string{"tage", "tage:tables=9", "gshare:log=12"})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Name != m.Spec || m.Spec == "" {
			t.Fatalf("model %q: spec %q", m.Name, m.Spec)
		}
	}
	if ms[1].Scale == nil {
		t.Fatal("parameterised tage spec must be scalable")
	}
	scaled := ms[1].Scale(2)
	if scaled.Spec != "tage:tables=9@+2" {
		t.Fatalf("scaled spec %q", scaled.Spec)
	}
	if _, err := BenchModels([]string{"tage:tables=9,log=11", "tage:log=11,tables=9"}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate canonical error: %v", err)
	}
}

// TestSpecParsingAllocations: a farm worker parses the model and trace
// spec of every cell it is leased, so a parse must not allocate more
// than it does here.
func TestSpecParsingAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	for _, c := range []struct {
		spec  string
		trace bool
		max   float64
	}{
		{"tage", false, 0},
		{"tage@+2", false, 0},
		{"tage:tables=9,hist=6:500", false, 3},
		{"composed:tage+ium+lsc,tables=10", false, 3},
		{"gshare:log=14", false, 1},
		{"loopy:#3", true, 0},
		{"phased:period=4096,phases=8#1", true, 2},
		{"mix:loopy=1,callret=1,datadep=1#5", true, 1},
		{"INT01", true, 0},
	} {
		parse := func() {
			if _, err := ParseSpec(c.spec); err != nil {
				t.Fatal(err)
			}
		}
		if c.trace {
			parse = func() {
				if _, err := workload.ParseTraceSpec(c.spec); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := testing.AllocsPerRun(100, parse); got > c.max {
			t.Errorf("parsing %q allocates %v times, want at most %v", c.spec, got, c.max)
		}
	}
	if got := testing.AllocsPerRun(100, func() { workload.ResolveSpec("INT01") }); got != 0 {
		t.Errorf("resolving INT01 allocates %v times, want 0", got)
	}
}

package workload

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// randomSpec draws a random valid generator spec string (possibly with
// messy-but-legal spacing and field order) plus its expected parse.
func randomSpec(r *rand.Rand) string {
	kind := kindOrder[r.Intn(len(kindOrder))]
	def := traceKindDefs[kind]
	var parts []string
	if kind == "mix" {
		n := 1 + r.Intn(len(def.fields))
		perm := r.Perm(len(def.fields))
		for _, i := range perm[:n] {
			parts = append(parts, fmt.Sprintf("%s=%d", def.fields[i].Key, 1+r.Intn(100)))
		}
	} else {
		for _, f := range def.fields {
			if r.Intn(2) == 0 {
				continue
			}
			if f.Range {
				// Stay inside each field's legal range.
				var v int
				switch f.Key {
				case "period":
					v = 64 + r.Intn(8192)
				case "phases":
					v = 2 + r.Intn(14)
				case "fan":
					v = 1 + r.Intn(8)
				case "depth":
					v = 1 + r.Intn(32)
				default:
					v = 1 + r.Intn(64)
				}
				parts = append(parts, fmt.Sprintf("%s=%d", f.Key, v))
			} else {
				parts = append(parts, fmt.Sprintf("%s=%.2f", f.Key, 0.5+0.5*r.Float64()))
			}
		}
	}
	if kind == "mix" && len(parts) == 0 {
		parts = append(parts, "loopy=1")
	}
	s := kind + ":" + strings.Join(parts, ",")
	if r.Intn(2) == 0 {
		s += fmt.Sprintf("#%d", r.Uint64()%1000)
	}
	return s
}

// TestParseCanonicalIdentity: parsing a canonical form reproduces the
// identical spec — ParseTraceSpec ∘ Canonical is the identity over
// random valid specs, so two spellings of one workload collide on one
// cell key.
func TestParseCanonicalIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 500; i++ {
		raw := randomSpec(r)
		s1, err := ParseTraceSpec(raw)
		if err != nil {
			t.Fatalf("spec %q: %v", raw, err)
		}
		c := s1.Canonical()
		s2, err := ParseTraceSpec(c)
		if err != nil {
			t.Fatalf("canonical %q of %q did not parse: %v", c, raw, err)
		}
		if got := s2.Canonical(); got != c {
			t.Fatalf("canonical not a fixed point: %q -> %q -> %q", raw, c, got)
		}
	}
}

// TestNegativeZeroCanonicalisesToZero: "-0" and "0" in a float field
// describe one workload, so they must share one canonical form (and
// therefore one cell key and one warm-cache blob).
func TestNegativeZeroCanonicalisesToZero(t *testing.T) {
	neg, err := ParseTraceSpec("callret:ret=-0")
	if err != nil {
		t.Fatal(err)
	}
	pos, err := ParseTraceSpec("callret:ret=0")
	if err != nil {
		t.Fatal(err)
	}
	if neg.Canonical() != pos.Canonical() || pos.Canonical() != "callret:ret=0" {
		t.Fatalf("canonical forms %q and %q, want both %q", neg.Canonical(), pos.Canonical(), "callret:ret=0")
	}
}

// TestNamedSugarByteIdentical: every named benchmark parses as a spec
// whose canonical form is exactly the name and whose resolution
// regenerates the same branches bit for bit — the property that keeps
// every pre-spec cell key, golden record and warm-cache key valid.
func TestNamedSugarByteIdentical(t *testing.T) {
	for _, want := range All() {
		ts, err := ParseTraceSpec(want.Name)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if !ts.IsNamed() || ts.Canonical() != want.Name {
			t.Fatalf("%s: canonical %q, named=%v", want.Name, ts.Canonical(), ts.IsNamed())
		}
		got, err := ts.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		a, b := Generate(got, 3000), Generate(want, 3000)
		if a.Hash() != b.Hash() || a.Name != b.Name || a.Category != b.Category {
			t.Fatalf("%s: sugar-resolved trace differs from direct generation", want.Name)
		}
	}
}

// TestGeneratorKindsDeterministic: every kind, at defaults, generates
// the identical branch stream twice; a different seed changes it.
func TestGeneratorKindsDeterministic(t *testing.T) {
	for _, kind := range kindOrder {
		spec := kind + ":"
		if kind == "mix" {
			spec = "mix:loopy=2,datadep=1"
		}
		sp, err := ResolveSpec(spec + "#1")
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		h1 := Generate(sp, 10000).Hash()
		h2 := Generate(sp, 10000).Hash()
		if h1 != h2 {
			t.Fatalf("%s: same spec+seed produced different traces", kind)
		}
		sp2, err := ResolveSpec(spec + "#2")
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if Generate(sp2, 10000).Hash() == h1 {
			t.Fatalf("%s: seed change did not change the trace", kind)
		}
		if sp.Name != ResolveSpecMust(t, spec+"#1").Name {
			t.Fatalf("%s: unstable resolved name", kind)
		}
	}
}

func ResolveSpecMust(t *testing.T, s string) Spec {
	t.Helper()
	sp, err := ResolveSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestParseErrors covers the grammar's failure modes: each must error
// and say something actionable.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "empty"},
		{"BOGUS", "matches no benchmark"},
		{"INT99", "did you mean"},
		{"INT01#7", "drop the \"#7\" suffix"},
		{"loopy", "write a spec like"},
		{"zoomy:trip=1", "unknown workload kind"},
		{"loopy:warp=9", "no field \"warp\""},
		{"loopy:trip=1,trip=2", "twice"},
		{"loopy:trip=x", "want an integer"},
		{"loopy:trip=0", "out of range"},
		{"callret:ret=1.5", "out of range"},
		{"loopy:trip", "not key=value"},
		{"loopy:trip=1,", "stray comma"},
		{"loopy:trip=1#zz", "bad seed"},
		{"mix:", "at least one component"},
		{"file:", "needs a path"},
		{"file:a,b.bpt", "trace lists split on commas"},
	}
	for _, c := range cases {
		_, err := ParseTraceSpec(c.spec)
		if err == nil {
			t.Fatalf("%q: no error", c.spec)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%q: error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

// TestWithFieldRewrite: the -trace-sweep primitive replaces one field,
// keeps canonical field order, and refuses non-generator specs.
func TestWithFieldRewrite(t *testing.T) {
	ts, err := ParseTraceSpec("loopy:jitter=3")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ts.WithField("trip", "100")
	if err != nil {
		t.Fatal(err)
	}
	if got := sw.Canonical(); got != "loopy:trip=100,jitter=3" {
		t.Fatalf("canonical %q, want field order trip,jitter", got)
	}
	if _, err := ts.WithField("warp", "1"); err == nil {
		t.Fatal("unknown field accepted")
	}
	named, _ := ParseTraceSpec("INT01")
	if _, err := named.WithField("trip", "1"); err == nil || !strings.Contains(err.Error(), "no parameter fields") {
		t.Fatalf("named WithField: %v", err)
	}
	file, _ := ParseTraceSpec("file:x.bpt")
	if _, err := file.WithField("trip", "1"); err == nil {
		t.Fatal("file WithField accepted")
	}
}

// TestSweepSpecs expands bases x values and rejects duplicates.
func TestSweepSpecs(t *testing.T) {
	out, err := SweepSpecs([]string{"phased:", "phased:phases=8"}, "period", []string{"1024", "4096"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"phased:period=1024", "phased:period=4096",
		"phased:period=1024,phases=8", "phased:period=4096,phases=8",
	}
	if len(out) != len(want) {
		t.Fatalf("got %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %q, want %q", i, out[i], want[i])
		}
	}
	if _, err := SweepSpecs([]string{"phased:period=1024", "phased:"}, "period", []string{"1024"}); err == nil {
		t.Fatal("duplicate sweep accepted")
	}
	if _, err := SweepSpecs([]string{"phased:"}, "period", nil); err == nil {
		t.Fatal("empty value sweep accepted")
	}
}

// TestSplitPatterns: commas continue a generator spec's field list but
// separate everything else.
func TestSplitPatterns(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"INT01,MM05", []string{"INT01", "MM05"}},
		{"phased:period=4096,phases=8#1,INT01", []string{"phased:period=4096,phases=8#1", "INT01"}},
		{"loopy:trip=5,jitter=2,datadep:bias=0.9", []string{"loopy:trip=5,jitter=2", "datadep:bias=0.9"}},
		{"INT*,file:x.bpt", []string{"INT*", "file:x.bpt"}},
		{" , INT01 , ", []string{"INT01"}},
		{"mix:loopy=1,phased=2", []string{"mix:loopy=1,phased=2"}},
	}
	for _, c := range cases {
		got := SplitPatterns(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("%q: got %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%q: got %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// TestSelectSpecPatterns: Select mixes globs and specs, dedups on
// trace identity, and keeps glob-then-spec order.
func TestSelectSpecPatterns(t *testing.T) {
	specs, err := Select([]string{"INT0[12]", "phased:period=1024#1", "INT01"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	want := []string{"INT01", "INT02", "phased:period=1024#1"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v, want %v", names, want)
	}

	_, err = Select([]string{"INT09"})
	if err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("near-miss suggestion missing: %v", err)
	}
	_, err = Select([]string{"ZZZ*"})
	if err == nil || !strings.Contains(err.Error(), "generator specs") {
		t.Fatalf("unmatched glob should mention spec syntax: %v", err)
	}
	_, err = Select([]string{"phased:warp=1"})
	if err == nil {
		t.Fatal("bad spec pattern accepted")
	}
}

// TestFileSpecResolve: a file-backed source is keyed by content (two
// paths to identical bytes get one identity), truncates to the
// requested branch count, and keeps the path as its SpecString.
func TestFileSpecResolve(t *testing.T) {
	dir := t.TempDir()
	tr := Generate(mustFind(t, "INT01"), 500)
	p1, p2 := filepath.Join(dir, "a.bpt"), filepath.Join(dir, "copy.bpt")
	for _, p := range []string{p1, p2} {
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Write(f, tr); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	s1 := ResolveSpecMust(t, "file:"+p1)
	s2 := ResolveSpecMust(t, "file:"+p2)
	if s1.Name != s2.Name {
		t.Fatalf("identical content, different identities: %q vs %q", s1.Name, s2.Name)
	}
	if !strings.HasPrefix(s1.Name, "file:") || len(s1.Name) != len("file:")+16 {
		t.Fatalf("identity %q is not a content hash", s1.Name)
	}
	if s1.SpecString() != "file:"+p1 {
		t.Fatalf("SpecString %q, want the path form", s1.SpecString())
	}
	if s1.Category != "INT" {
		t.Fatalf("category %q (should keep the stored category)", s1.Category)
	}

	full := Generate(s1, 500)
	if full.Hash() != tr.Hash() {
		t.Fatal("replayed branches differ from the stored trace")
	}
	short := Generate(s1, 100)
	if len(short.Branches) != 100 {
		t.Fatalf("truncation: got %d branches", len(short.Branches))
	}
	over := Generate(s1, 10000)
	if len(over.Branches) != 500 {
		t.Fatalf("over-request: got %d branches, want all 500", len(over.Branches))
	}

	if _, err := ResolveSpec("file:" + filepath.Join(dir, "missing.bpt")); err == nil {
		t.Fatal("missing file resolved")
	}
}

func mustFind(t *testing.T, name string) Spec {
	t.Helper()
	sp, ok := Find(name)
	if !ok {
		t.Fatalf("no benchmark %s", name)
	}
	return sp
}

// TestKindSummaries: every kind appears, with its fields and defaults.
func TestKindSummaries(t *testing.T) {
	lines := strings.Join(KindSummaries(), "\n")
	for _, k := range Kinds() {
		if !strings.Contains(lines, k+":") {
			t.Fatalf("kind %s missing from summaries:\n%s", k, lines)
		}
	}
	if !strings.Contains(lines, "period=8192") || !strings.Contains(lines, "file:") {
		t.Fatalf("summaries lack defaults or the file pseudo-kind:\n%s", lines)
	}
}

// TestFieldSweepsAsRange: integer fields sweep as ranges, float fields
// must not (their lo:hi would be misparsed), unknown keys neither.
func TestFieldSweepsAsRange(t *testing.T) {
	if !FieldSweepsAsRange("trip") || !FieldSweepsAsRange("period") {
		t.Fatal("integer fields should range-sweep")
	}
	if FieldSweepsAsRange("bias") || FieldSweepsAsRange("ret") {
		t.Fatal("float fields must not range-sweep")
	}
	if FieldSweepsAsRange("warp") {
		t.Fatal("unknown field should not range-sweep")
	}
}

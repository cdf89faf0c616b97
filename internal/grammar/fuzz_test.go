package grammar_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/workload"
)

// FuzzSplitCanonicalLists: a -models or -traces flag value is a comma
// list of specs whose own field lists hold commas too, so the splitter
// must cut only between specs. The input is one spec a line; every line
// that parses as a model or a trace spec contributes its canonical
// form, and splitting the comma-join of each grammar's canonical forms
// must return them unchanged.
func FuzzSplitCanonicalLists(f *testing.F) {
	f.Add(strings.Join(models.Names(), "\n"))
	for _, name := range models.ScalableNames() {
		f.Add(name + "@+2\n" + name + "@-1")
	}
	f.Add("tage:tables=9,hist=6:500\ngshare:log=14\ncomposed:tage+ium+lsc,tables=10\ntage@+2")
	f.Add("tage-lsc@+1\ntage:log=11,tag=8\ngehl:tables=5,ctr=4\ntage:seed=7,banked=1@-3")
	for _, s := range workload.All() {
		f.Add(s.Name)
	}
	f.Add(strings.Join(workload.Kinds(), ":\n") + ":")
	f.Add("phased:period=4096,phases=8#1\nINT01\nloopy:trip=5,jitter=2\ndatadep:bias=0.9")
	f.Add("mix:loopy=1,phased=2#5\nfile:traces/gcc.bpt\ncallret:ret=0.25")
	f.Fuzz(func(t *testing.T, lines string) {
		var ms, ts []string
		for _, line := range strings.Split(lines, "\n") {
			if spec, err := models.ParseSpec(line); err == nil {
				ms = append(ms, spec.Canonical())
			}
			if spec, err := workload.ParseTraceSpec(line); err == nil {
				ts = append(ts, spec.Canonical())
			}
		}
		if got := models.SplitList(strings.Join(ms, ",")); !slices.Equal(got, ms) {
			t.Fatalf("model list %q splits into %q", ms, got)
		}
		if got := workload.SplitPatterns(strings.Join(ts, ",")); !slices.Equal(got, ts) {
			t.Fatalf("trace list %q splits into %q", ts, got)
		}
	})
}

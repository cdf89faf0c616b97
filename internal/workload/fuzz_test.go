package workload

import (
	"math/rand"
	"testing"
)

// FuzzParseTraceSpec: the trace-spec parser faces user input (-traces
// flags, stored records, lease payloads). For arbitrary strings it must
// never panic, and any accepted spec must canonicalise to a string that
// parses back to itself — the property that gives one workload one cell
// key.
func FuzzParseTraceSpec(f *testing.F) {
	for _, s := range All() {
		f.Add(s.Name)
	}
	for _, k := range kindOrder {
		f.Add(k + ":")
	}
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 50; i++ {
		f.Add(randomSpec(r))
	}
	f.Add("callret:ret=-0")
	f.Add("file:trace.bpt")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseTraceSpec(s)
		if err != nil {
			return
		}
		c := spec.Canonical()
		again, err := ParseTraceSpec(c)
		if err != nil {
			t.Fatalf("canonical %q of %q does not parse: %v", c, s, err)
		}
		if got := again.Canonical(); got != c {
			t.Fatalf("canonical not a fixed point: %q -> %q -> %q", s, c, got)
		}
	})
}

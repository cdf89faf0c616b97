package repro

import (
	"math/rand"
	"testing"

	"repro/internal/models"
)

// FuzzParseSpec: the model-spec parser faces user input (-models flags,
// stored records, lease payloads). For arbitrary strings it must never
// panic, and any accepted spec must canonicalise to a string that parses
// back to itself — the property that gives one configuration one cell
// key.
func FuzzParseSpec(f *testing.F) {
	for _, name := range ModelNames() {
		f.Add(name)
	}
	for _, name := range models.ScalableNames() {
		f.Add(name + "@+2")
	}
	r := rand.New(rand.NewSource(20260727))
	for i := 0; i < 50; i++ {
		f.Add(randSpec(r))
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		c := spec.Canonical()
		again, err := ParseSpec(c)
		if err != nil {
			t.Fatalf("canonical %q of %q does not parse: %v", c, s, err)
		}
		if got := again.Canonical(); got != c {
			t.Fatalf("canonical not a fixed point: %q -> %q -> %q", s, c, got)
		}
	})
}

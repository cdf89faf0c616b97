package trace

import (
	"bytes"
	"os"
	"slices"
	"testing"
)

// FuzzConvert: `tracegen convert` parses text traces from outside the
// repository, in either format. For arbitrary input Convert must never
// panic, and every trace it accepts must come back unchanged from the
// binary format it is stored in: Write then Read.
func FuzzConvert(f *testing.F) {
	sample, err := os.ReadFile("../../cmd/tracegen/testdata/cbp-sample.txt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, sample)
	f.Add(true, []byte("4198400 B T\n4198404 C T\n4198408 R N\n0x400300 B 0\n4198412 J T\n# comment\n\n4198416 X T\n"))
	f.Fuzz(func(t *testing.T, champsim bool, data []byte) {
		format := "cbp"
		if champsim {
			format = "champsim"
		}
		tr, _, err := Convert(bytes.NewReader(data), format, "fuzz")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of a written %s trace: %v", format, err)
		}
		if back.Name != tr.Name || back.Category != tr.Category || !slices.Equal(slices.Collect(back.Branches()), slices.Collect(tr.Branches())) {
			t.Fatalf("%s trace of %d branches changed through Write/Read", format, tr.Len())
		}
	})
}

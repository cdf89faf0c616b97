package trace

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// roundTrip encodes then decodes tr, failing the test on any error.
func roundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// TestRoundTripProperty drives the binary encoding with adversarial
// branch records the synthetic generators never produce: arbitrary
// 64-bit PCs (so the zigzag delta encoding sees huge forward and
// backward jumps and wraparound), the full OpsBefore range including
// the 0 and 255 saturation boundaries, and arbitrary metadata strings.
func TestRoundTripProperty(t *testing.T) {
	prop := func(name, category string, pcs []uint64, dirs []bool, ops []uint8) bool {
		n := len(pcs)
		if len(dirs) < n {
			n = len(dirs)
		}
		if len(ops) < n {
			n = len(ops)
		}
		want := make([]Branch, n)
		for i := range want {
			want[i] = Branch{PC: pcs[i], Taken: dirs[i], OpsBefore: ops[i]}
		}
		tr := FromBranches(name, category, want)
		got := roundTrip(t, tr)
		if got.Name != tr.Name || got.Category != tr.Category {
			return false
		}
		return slices.Equal(slices.Collect(got.Branches()), want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripOpsBeforeSaturation(t *testing.T) {
	// Every representable OpsBefore value survives, in particular the
	// saturated 255 and the 0 boundary.
	var want []Branch
	for v := 0; v <= math.MaxUint8; v++ {
		want = append(want, Branch{
			PC:        0x400000 + uint64(v)*16,
			Taken:     v%2 == 0,
			OpsBefore: uint8(v),
		})
	}
	tr := FromBranches("OPS", "EDGE", want)
	got := roundTrip(t, tr)
	if !slices.Equal(slices.Collect(got.Branches()), want) {
		t.Fatal("OpsBefore values corrupted by round trip")
	}
	if got.MicroOps() != tr.MicroOps() {
		t.Fatalf("micro-op count changed: %d -> %d", tr.MicroOps(), got.MicroOps())
	}
}

func TestRoundTripExtremePCDeltas(t *testing.T) {
	// Delta encoding must survive the extremes of the PC space: zero,
	// max-uint64, and alternating far jumps in both directions.
	var want []Branch
	for _, pc := range []uint64{
		0, math.MaxUint64, 1, math.MaxUint64 - 1, 0x400000,
		math.MaxInt64, uint64(math.MaxInt64) + 1, 42,
	} {
		want = append(want, Branch{PC: pc, Taken: true, OpsBefore: 3})
	}
	got := slices.Collect(roundTrip(t, FromBranches("PC", "EDGE", want)).Branches())
	if !slices.Equal(got, want) {
		t.Fatalf("extreme PCs corrupted: %+v", got)
	}
}

func TestRoundTripEmptyVariants(t *testing.T) {
	for _, tr := range []*Trace{
		{},
		{Name: "ONLY-NAME"},
		{Category: "ONLY-CAT"},
		{Name: "ünïcode/名前", Category: "カテゴリ"},
	} {
		got := roundTrip(t, tr)
		if got.Name != tr.Name || got.Category != tr.Category || got.Len() != 0 {
			t.Fatalf("empty-trace round trip: got %+v, want %+v", got, tr)
		}
	}
}

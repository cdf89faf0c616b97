package trace

import (
	"slices"
	"strings"
	"testing"
)

func TestConvertCBP(t *testing.T) {
	in := `# comment
400100 T
400100 N
0x400200 1

400300 0
`
	tr, st, err := ConvertCBP(strings.NewReader(in), "sample")
	if err != nil {
		t.Fatal(err)
	}
	if st.Lines != 4 || st.Conditional != 4 {
		t.Fatalf("stats %+v", st)
	}
	if tr.Name != "sample" || tr.Category != "EXT" {
		t.Fatalf("identity %q/%q", tr.Name, tr.Category)
	}
	got := slices.Collect(tr.Branches())
	want := []struct {
		pc    uint64
		taken bool
	}{
		{0x400100, true}, {0x400100, false}, {0x400200, true}, {0x400300, false},
	}
	for i, w := range want {
		b := got[i]
		if b.PC != w.pc || b.Taken != w.taken {
			t.Fatalf("branch %d: %+v, want %+v", i, b, w)
		}
		if b.OpsBefore != synthOps(w.pc) {
			t.Fatalf("branch %d: OpsBefore %d not synthesised", i, b.OpsBefore)
		}
	}
}

func TestConvertCBPErrors(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"400100 T X", "line 1"},
		{"400100 T\nzzzz T", "line 2: bad pc"},
		{"400100 Q", "bad direction"},
	}
	for _, c := range cases {
		_, _, err := ConvertCBP(strings.NewReader(c.in), "x")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%q: error %v does not mention %q", c.in, err, c.want)
		}
	}
}

func TestConvertChampSim(t *testing.T) {
	in := `4198400 B T
4198404 C T
4198408 R N
0x400300 B 0
4198412 J T
4198416 X T
`
	tr, st, err := ConvertChampSim(strings.NewReader(in), "cs")
	if err != nil {
		t.Fatal(err)
	}
	if st.Lines != 6 || st.Conditional != 2 || st.Calls != 1 || st.Returns != 1 || st.Jumps != 1 || st.Other != 1 {
		t.Fatalf("stats %+v", st)
	}
	got := slices.Collect(tr.Branches())
	if b := got[0]; b.PC != 4198400 || !b.Taken {
		t.Fatalf("branch 0: %+v", b)
	}
	// 0x prefix overrides the decimal default base.
	if b := got[1]; b.PC != 0x400300 || b.Taken {
		t.Fatalf("branch 1: %+v", b)
	}
}

func TestConvertDispatch(t *testing.T) {
	if _, _, err := Convert(strings.NewReader(""), "elf", "x"); err == nil || !strings.Contains(err.Error(), "cbp") {
		t.Fatalf("unknown format error should list formats: %v", err)
	}
	if _, _, err := Convert(strings.NewReader("400100 T"), "cbp", "x"); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeMixFields: the branch-mix additions — footprint
// concentration and direction-transition entropy — behave at the
// extremes.
func TestSummarizeMixFields(t *testing.T) {
	// All-taken single PC: top-10 covers everything, zero entropy.
	mono := NewBuilder("mono", "", 0)
	for i := 0; i < 100; i++ {
		mono.Add(Branch{PC: 0x400000, Taken: true, OpsBefore: 3})
	}
	st := Summarize(mono.Trace())
	if st.Top10Coverage != 1 {
		t.Fatalf("Top10Coverage = %v", st.Top10Coverage)
	}
	if st.TransitionEntropy != 0 {
		t.Fatalf("TransitionEntropy = %v, want 0 for a constant stream", st.TransitionEntropy)
	}

	// Strict alternation is perfectly predictable from the previous
	// direction: entropy 0 again.
	alt := NewBuilder("alt", "", 0)
	for i := 0; i < 100; i++ {
		alt.Add(Branch{PC: 0x400000, Taken: i%2 == 0, OpsBefore: 3})
	}
	if e := Summarize(alt.Trace()).TransitionEntropy; e != 0 {
		t.Fatalf("alternating entropy = %v, want 0", e)
	}

	// T T N N T T N N ... : the next direction is a coin flip given the
	// current one — a full bit of conditional entropy.
	pair := NewBuilder("pair", "", 0)
	for i := 0; i < 400; i++ {
		pair.Add(Branch{PC: 0x400000, Taken: i%4 < 2, OpsBefore: 3})
	}
	if e := Summarize(pair.Trace()).TransitionEntropy; e < 0.95 || e > 1.0 {
		t.Fatalf("paired entropy = %v, want ~1 bit", e)
	}

	// 11 equally-hot PCs: top 10 cover 10/11 of the stream.
	wide := NewBuilder("wide", "", 0)
	for i := 0; i < 110; i++ {
		wide.Add(Branch{PC: 0x400000 + uint64(i%11)*16, Taken: true, OpsBefore: 3})
	}
	if c := Summarize(wide.Trace()).Top10Coverage; c < 0.90 || c > 0.92 {
		t.Fatalf("Top10Coverage = %v, want 10/11", c)
	}
}

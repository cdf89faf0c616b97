package trace

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// sampleBranches draws n branches over about 1,000 PCs.
func sampleBranches(n int, seed uint64) []Branch {
	r := rng.NewXoshiro(seed)
	out := make([]Branch, n)
	pc := uint64(0x400000)
	for i := range out {
		if r.Bool(0.3) {
			pc = 0x400000 + uint64(r.Intn(1000))*4
		} else {
			pc += 4
		}
		out[i] = Branch{PC: pc, Taken: r.Bool(0.6), OpsBefore: uint8(r.Intn(8))}
	}
	return out
}

func sampleTrace(n int, seed uint64) *Trace {
	return FromBranches("SAMPLE", "TEST", sampleBranches(n, seed))
}

// distinctBranches returns n branches of n distinct PCs: more than
// maxPairs of them make a wide trace.
func distinctBranches(n int) []Branch {
	out := make([]Branch, n)
	for i := range out {
		out[i] = Branch{PC: 0x400000 + uint64(i)*4, Taken: i%3 == 0, OpsBefore: uint8(i % 8)}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace(5000, 1)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Category != tr.Category {
		t.Fatalf("metadata mismatch: %q/%q", got.Name, got.Category)
	}
	if !slices.Equal(slices.Collect(got.Branches()), sampleBranches(5000, 1)) {
		t.Fatal("branches differ after round trip")
	}
}

func TestRoundTripEmpty(t *testing.T) {
	tr := &Trace{Name: "E", Category: "X"}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Name != "E" {
		t.Fatal("empty trace round trip failed")
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		want := sampleBranches(int(nRaw%500), seed)
		var buf bytes.Buffer
		if err := Write(&buf, FromBranches("Q", "T", want)); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return slices.Equal(slices.Collect(got.Branches()), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := Read(strings.NewReader("NOTATRACEFILE"))
	if err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	tr := sampleTrace(100, 2)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{5, 10, len(data) / 2, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("expected error for truncation at %d", cut)
		}
	}
}

func TestMicroOps(t *testing.T) {
	tr := FromBranches("", "", []Branch{
		{PC: 1, OpsBefore: 3},
		{PC: 2, OpsBefore: 0},
		{PC: 3, OpsBefore: 7},
	})
	// 3+1 + 0+1 + 7+1 = 13
	if got := tr.MicroOps(); got != 13 {
		t.Fatalf("MicroOps = %d, want 13", got)
	}
}

func TestSummarize(t *testing.T) {
	tr := FromBranches("", "", []Branch{
		{PC: 0x10, Taken: true, OpsBefore: 1},
		{PC: 0x10, Taken: false, OpsBefore: 1},
		{PC: 0x20, Taken: true, OpsBefore: 1},
		{PC: 0x30, Taken: true, OpsBefore: 1},
	})
	s := Summarize(tr)
	if s.Branches != 4 || s.StaticBranches != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TakenFraction != 0.75 {
		t.Fatalf("taken fraction = %v, want 0.75", s.TakenFraction)
	}
	if s.MicroOps != 8 {
		t.Fatalf("micro ops = %d, want 8", s.MicroOps)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(&Trace{})
	if s.Branches != 0 || s.TakenFraction != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

// TestReaderIteration: a Cursor read one branch at a time reproduces
// the branches, Len counts down as it goes, and Seek rewinds it so the
// same Cursor reads the trace again.
func TestReaderIteration(t *testing.T) {
	want := sampleBranches(10, 3)
	tr := FromBranches("R", "T", want)
	var c Cursor
	for pass := 0; pass < 2; pass++ {
		c.Seek(tr)
		var got []Branch
		one := make([]Branch, 1)
		for c.NextBatch(one) == 1 {
			got = append(got, one[0])
			if left := len(want) - len(got); c.Len() != left {
				t.Fatalf("pass %d: Len = %d after %d branches, want %d", pass, c.Len(), len(got), left)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pass %d: Cursor did not reproduce the branches", pass)
		}
	}
}

// TestNextBatchReproducesBranches: block decoding yields exactly the
// branches of the trace, in order, across batch sizes that divide the
// trace evenly, leave a remainder, or exceed it.
func TestNextBatchReproducesBranches(t *testing.T) {
	r := rng.NewXoshiro(7)
	want := make([]Branch, 1000)
	for i := range want {
		want[i] = Branch{PC: uint64(r.Uint32()), Taken: r.Bool(0.5), OpsBefore: uint8(r.Intn(9))}
	}
	tr := FromBranches("b", "T", want)
	var c Cursor
	for _, batchSize := range []int{1, 7, 250, 1000, 4096} {
		c.Seek(tr)
		var got []Branch
		buf := make([]Branch, batchSize)
		for {
			n := c.NextBatch(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("batch size %d: stream differs from the branches", batchSize)
		}
		if c.Len() != 0 {
			t.Fatalf("batch size %d: Len = %d after the last batch, want 0", batchSize, c.Len())
		}
	}
}

// TestNextBatchAfterSkip: advancing with Skip and reading with
// NextBatch share one position.
func TestNextBatchAfterSkip(t *testing.T) {
	tr := FromBranches("", "", []Branch{{PC: 1}, {PC: 2}, {PC: 3}})
	var c Cursor
	c.Seek(tr)
	if got := c.Skip(1); got != 1 {
		t.Fatalf("Skip(1) = %d, want 1", got)
	}
	buf := make([]Branch, 8)
	if n := c.NextBatch(buf); n != 2 || buf[0].PC != 2 || buf[1].PC != 3 {
		t.Fatalf("NextBatch = %d, %+v", n, buf[:n])
	}
	if n := c.NextBatch(buf); n != 0 {
		t.Fatalf("exhausted NextBatch = %d, want 0", n)
	}
}

// TestCursor: Skip clamps to what is left and ignores a count below
// one, Len counts what is left, and a nil or zero cursor is exhausted.
func TestCursor(t *testing.T) {
	want := sampleBranches(1000, 7)
	tr := FromBranches("C", "T", want)
	var c Cursor
	c.Seek(tr)
	if c.Len() != 1000 {
		t.Fatalf("Len after Seek = %d, want 1000", c.Len())
	}
	if got := c.Skip(0); got != 0 {
		t.Fatalf("Skip(0) = %d, want 0", got)
	}
	if got := c.Skip(-3); got != 0 {
		t.Fatalf("Skip(-3) = %d, want 0", got)
	}
	if got := c.Skip(10); got != 10 || c.Len() != 990 {
		t.Fatalf("Skip(10) = %d, Len %d; want 10, 990", got, c.Len())
	}
	buf := make([]Branch, 3)
	if n := c.NextBatch(buf); n != 3 || !slices.Equal(buf, want[10:13]) {
		t.Fatalf("NextBatch after Skip(10) = %d, %+v; want branches 10..12", n, buf[:n])
	}
	if got := c.Skip(2000); got != 987 || c.Len() != 0 {
		t.Fatalf("Skip past the end = %d, Len %d; want 987, 0", got, c.Len())
	}
	if n := c.NextBatch(buf); n != 0 {
		t.Fatalf("exhausted NextBatch = %d, want 0", n)
	}

	c.Seek(nil)
	var zero Cursor
	for name, e := range map[string]*Cursor{"Seek(nil)": &c, "zero": &zero} {
		if e.Len() != 0 || e.Skip(5) != 0 || e.NextBatch(buf) != 0 {
			t.Fatalf("%s cursor is not exhausted", name)
		}
	}
}

// TestCursorBothForms: a Cursor reads a compact and a wide trace alike,
// at every batch size, with Skip mixed in between batches: each batch
// holds the branches at the cursor's position and Len counts what is
// left.
func TestCursorBothForms(t *testing.T) {
	for _, form := range []struct {
		name string
		want []Branch
		wide bool
	}{
		{"compact", sampleBranches(5000, 11), false},
		{"wide", distinctBranches(maxPairs + 100), true},
	} {
		tr := FromBranches(form.name, "T", form.want)
		if got := tr.wide != nil; got != form.wide {
			t.Fatalf("%s: wide form = %v, want %v", form.name, got, form.wide)
		}
		var c Cursor
		for _, size := range []int{1, 7, 250, 1000, 4096} {
			c.Seek(tr)
			buf := make([]Branch, size)
			pos := 0
			for step := 0; ; step++ {
				if step%3 == 2 {
					pos += c.Skip(step % 11)
				}
				n := c.NextBatch(buf)
				if n == 0 {
					break
				}
				if !slices.Equal(buf[:n], form.want[pos:pos+n]) {
					t.Fatalf("%s, batch %d: branches %d..%d differ", form.name, size, pos, pos+n-1)
				}
				pos += n
				if c.Len() != len(form.want)-pos {
					t.Fatalf("%s, batch %d: Len = %d at %d, want %d", form.name, size, c.Len(), pos, len(form.want)-pos)
				}
			}
			if pos != len(form.want) {
				t.Fatalf("%s, batch %d: read to %d of %d", form.name, size, pos, len(form.want))
			}
		}
	}
}

// TestWideForm: a trace keeps the compact form up to maxPairs distinct
// (PC, OpsBefore) pairs and takes the wide form at one more, whether
// the branches arrive whole (Add) or by interned index (Emit), and
// either way it reads back, hashes and round-trips unchanged.
func TestWideForm(t *testing.T) {
	for _, n := range []int{maxPairs, maxPairs + 1} {
		want := distinctBranches(n)
		want = append(want, want[:50]...) // repeats after the switch
		added := FromBranches("W", "T", want)
		emitted := NewBuilder("W", "T", 0)
		for _, b := range want {
			emitted.Emit(emitted.Intern(b.PC, b.OpsBefore), b.Taken)
		}
		for name, tr := range map[string]*Trace{"Add": added, "Emit": emitted.Trace()} {
			if wide := tr.wide != nil; wide != (n > maxPairs) {
				t.Fatalf("%s, %d pairs: wide form = %v", name, n, wide)
			}
			if !slices.Equal(slices.Collect(tr.Branches()), want) {
				t.Fatalf("%s, %d pairs: branches differ", name, n)
			}
			if got := roundTrip(t, tr); got.Hash() != tr.Hash() || got.Len() != len(want) {
				t.Fatalf("%s, %d pairs: round trip changed the trace", name, n)
			}
		}
	}
	// One PC with two OpsBefore values is two pairs of one static branch.
	tr := FromBranches("", "", []Branch{{PC: 8, OpsBefore: 1}, {PC: 8, OpsBefore: 2}, {PC: 8, OpsBefore: 1}})
	if len(tr.table) != 4 || Summarize(tr).StaticBranches != 1 {
		t.Fatalf("table %v, %+v", tr.table, Summarize(tr))
	}
}

// TestPrefix: a prefix view shares its trace's storage and reads,
// hashes and summarises as the trace of its first n branches would;
// Summarize counts only the static branches the prefix emits.
func TestPrefix(t *testing.T) {
	for _, want := range [][]Branch{sampleBranches(3000, 5), distinctBranches(maxPairs + 10)} {
		tr := FromBranches("P", "T", want)
		for _, n := range []int{-1, 0, 1, 999, len(want), len(want) + 5} {
			k := max(0, min(n, len(want)))
			v := tr.Prefix(n)
			alone := FromBranches("P", "T", want[:k])
			if v.Name != "P" || v.Len() != k || v.Hash() != alone.Hash() {
				t.Fatalf("Prefix(%d) of %d: len %d", n, len(want), v.Len())
			}
			if got, w := Summarize(v), Summarize(alone); got != w {
				t.Fatalf("Prefix(%d) of %d: Summarize %+v, want %+v", n, len(want), got, w)
			}
		}
	}
	// The first two branches touch one PC of the trace's three.
	tr := FromBranches("", "", []Branch{{PC: 1}, {PC: 1, Taken: true}, {PC: 2}, {PC: 3}})
	if s := Summarize(tr.Prefix(2)); s.StaticBranches != 1 || s.Branches != 2 {
		t.Fatalf("Summarize(Prefix(2)) = %+v", s)
	}
}

// TestEmptyTraceLiteral: a Trace with only a name reads as empty.
func TestEmptyTraceLiteral(t *testing.T) {
	tr := &Trace{Name: "empty"}
	var c Cursor
	c.Seek(tr)
	if tr.Len() != 0 || c.Len() != 0 || c.NextBatch(make([]Branch, 4)) != 0 || tr.Prefix(3).Len() != 0 {
		t.Fatal("a Trace literal is not empty")
	}
}

// readCountHeader is a BPT1 header, empty name and category, claiming
// 2^32 branches and holding none.
const readCountHeader = "BPT1\x00\x00\x80\x80\x80\x80\x10"

// TestReadDoesNotTrustTheCount: Read makes room for the branches it
// decodes, not for the count a header claims.
func TestReadDoesNotTrustTheCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(strings.NewReader(readCountHeader))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Read accepted a header claiming 2^32 branches")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("Read allocated %d bytes for an 11-byte input", n)
	}
}

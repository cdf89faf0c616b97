package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func sampleTrace(n int, seed uint64) *Trace {
	r := rng.NewXoshiro(seed)
	t := &Trace{Name: "SAMPLE", Category: "TEST"}
	pc := uint64(0x400000)
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			pc = 0x400000 + uint64(r.Intn(1000))*4
		} else {
			pc += 4
		}
		t.Branches = append(t.Branches, Branch{
			PC:        pc,
			Taken:     r.Bool(0.6),
			OpsBefore: uint8(r.Intn(8)),
		})
	}
	return t
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
	if !reflect.DeepEqual(got.Branches, tr.Branches) {
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
	if len(got.Branches) != 0 || got.Name != "E" {
		t.Fatal("empty trace round trip failed")
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		tr := sampleTrace(int(nRaw%500), seed)
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(tr.Branches) == 0 {
			return len(got.Branches) == 0
		}
		return reflect.DeepEqual(got.Branches, tr.Branches)
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
	tr := &Trace{Branches: []Branch{
		{PC: 1, OpsBefore: 3},
		{PC: 2, OpsBefore: 0},
		{PC: 3, OpsBefore: 7},
	}}
	// 3+1 + 0+1 + 7+1 = 13
	if got := tr.MicroOps(); got != 13 {
		t.Fatalf("MicroOps = %d, want 13", got)
	}
}

func TestSummarize(t *testing.T) {
	tr := &Trace{Branches: []Branch{
		{PC: 0x10, Taken: true, OpsBefore: 1},
		{PC: 0x10, Taken: false, OpsBefore: 1},
		{PC: 0x20, Taken: true, OpsBefore: 1},
		{PC: 0x30, Taken: true, OpsBefore: 1},
	}}
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
	tr := sampleTrace(10, 3)
	var c Cursor
	for pass := 0; pass < 2; pass++ {
		c.Seek(tr)
		var got []Branch
		one := make([]Branch, 1)
		for c.NextBatch(one) == 1 {
			got = append(got, one[0])
			if want := len(tr.Branches) - len(got); c.Len() != want {
				t.Fatalf("pass %d: Len = %d after %d branches, want %d", pass, c.Len(), len(got), want)
			}
		}
		if !reflect.DeepEqual(got, tr.Branches) {
			t.Fatalf("pass %d: Cursor did not reproduce the branches", pass)
		}
	}
}

// TestNextBatchMatchesNext: block decoding yields exactly the branches
// of the trace, in order, across batch sizes that divide the trace
// evenly, leave a remainder, or exceed it.
func TestNextBatchMatchesNext(t *testing.T) {
	r := rng.NewXoshiro(7)
	tr := &Trace{Name: "b", Category: "T"}
	for i := 0; i < 1000; i++ {
		tr.Branches = append(tr.Branches, Branch{
			PC: uint64(r.Uint32()), Taken: r.Bool(0.5), OpsBefore: uint8(r.Intn(9)),
		})
	}
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
		if !reflect.DeepEqual(got, tr.Branches) {
			t.Fatalf("batch size %d: stream differs from Branches", batchSize)
		}
		if c.Len() != 0 {
			t.Fatalf("batch size %d: Len = %d after the last batch, want 0", batchSize, c.Len())
		}
	}
}

// TestNextBatchAfterNext: advancing with Skip and reading with
// NextBatch share one position.
func TestNextBatchAfterNext(t *testing.T) {
	tr := &Trace{Branches: []Branch{{PC: 1}, {PC: 2}, {PC: 3}}}
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
	tr := sampleTrace(1000, 7)
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
	if n := c.NextBatch(buf); n != 3 || !reflect.DeepEqual(buf, tr.Branches[10:13]) {
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

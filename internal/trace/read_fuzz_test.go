package trace_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// FuzzReadTrace: every `file:` trace, `tracegen -summarize` and a farm
// worker resolving a wire job read BPT1 bytes from outside the process.
// For arbitrary input Read must never panic, and a trace it accepts must
// come back unchanged through Write and Read: the same name, category,
// branches and Hash.
func FuzzReadTrace(f *testing.F) {
	tr, err := workload.GenerateByName("INT01", 300)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte("BPT1\x00\x00\x80\x80\x80\x80\x10")) // claims 2^32 branches, holds none
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := trace.Write(&out, tr); err != nil {
			t.Fatalf("Write: %v", err)
		}
		back, err := trace.Read(&out)
		if err != nil {
			t.Fatalf("Read of a written trace: %v", err)
		}
		if back.Name != tr.Name || back.Category != tr.Category || back.Hash() != tr.Hash() ||
			!slices.Equal(slices.Collect(back.Branches()), slices.Collect(tr.Branches())) {
			t.Fatalf("trace of %d branches changed through Write/Read", tr.Len())
		}
	})
}

package sim

import (
	"strings"
	"testing"

	"repro/internal/predictor"
	"repro/internal/tage"
	"repro/internal/trace"
)

// ckTrace builds a history-correlated trace that keeps TAGE's folded
// histories, usefulness counters and the simulator's in-flight window
// all busy, so a checkpoint exercises real state.
func ckTrace(n int) *trace.Trace {
	tr := &trace.Trace{Name: "ck", Category: "TEST"}
	hist := 0
	for i := 0; i < n; i++ {
		pc := uint64(0x4000 + (i%13)*4)
		taken := (hist>>3)&1 == (hist>>7)&1
		if i%13 == 5 {
			taken = i%5 != 0
		}
		tr.Branches = append(tr.Branches, trace.Branch{PC: pc, Taken: taken, OpsBefore: uint8(2 + i%5)})
		hist = hist<<1 | b2i(taken)
	}
	return tr
}

func stripTiming(r Result) Result {
	r.Elapsed, r.BranchesPerSec = 0, 0
	r.ResumedAt = 0
	return r
}

// TestCheckpointRoundTrip asserts the resume contract: for every
// checkpoint a run emits (periodic and end-of-trace), restoring it and
// continuing over the same trace yields a result identical to the
// uninterrupted run — counters, MPKI/MPPKI, and access accounting alike.
func TestCheckpointRoundTrip(t *testing.T) {
	tr := ckTrace(30000)
	opt := Options{Scenario: predictor.ScenarioA, Window: 16, ExecDelay: 3, PenaltyBase: 20}
	want := stripTiming(runTrace(tage.New(tage.Reference()), tr, opt))

	var cks []Checkpoint
	ckOpt := opt
	ckOpt.CheckpointEvery = 7000
	ckOpt.OnCheckpoint = func(blob []byte, at uint64) {
		cks = append(cks, Checkpoint{At: at, Blob: append([]byte(nil), blob...)})
	}
	if got := stripTiming(runTrace(tage.New(tage.Reference()), tr, ckOpt)); got != want {
		t.Fatalf("checkpoint emission perturbed the run:\n  with:    %+v\n  without: %+v", got, want)
	}
	if len(cks) < 4 {
		t.Fatalf("expected periodic + final checkpoints, got %d", len(cks))
	}
	for _, ck := range cks {
		ck := ck
		rOpt := opt
		rOpt.Resume = &ck
		got := runTrace(tage.New(tage.Reference()), tr, rOpt)
		if got.ResumeErr != nil {
			t.Fatalf("resume at %d: %v", ck.At, got.ResumeErr)
		}
		if got.ResumedAt != ck.At {
			t.Errorf("resume at %d: skipped %d branches", ck.At, got.ResumedAt)
		}
		if g := stripTiming(got); g != want {
			t.Errorf("resume at %d diverges from uninterrupted run:\n  resumed: %+v\n  full:    %+v", ck.At, g, want)
		}
	}
}

// TestCheckpointColdFallback asserts that an undecodable or mismatched
// blob never corrupts a run: the simulator records the error, resets,
// and produces the cold-run result.
func TestCheckpointColdFallback(t *testing.T) {
	tr := ckTrace(8000)
	opt := Options{Scenario: predictor.ScenarioA, Window: 8, ExecDelay: 2}
	want := stripTiming(runTrace(tage.New(tage.Reference()), tr, opt))

	// A valid blob taken under a different pipeline configuration.
	var mid Checkpoint
	ckOpt := opt
	ckOpt.CheckpointEvery = 3000
	ckOpt.OnCheckpoint = func(blob []byte, at uint64) {
		if mid.Blob == nil {
			mid = Checkpoint{At: at, Blob: append([]byte(nil), blob...)}
		}
	}
	runTrace(tage.New(tage.Reference()), tr, ckOpt)

	cases := []struct {
		name string
		ck   Checkpoint
		want string
	}{
		{"garbage", Checkpoint{At: 5, Blob: []byte("not a checkpoint")}, "checkpoint:"},
		{"config mismatch", func() Checkpoint {
			return mid
		}(), "this run uses"},
	}
	for _, tc := range cases {
		rOpt := opt
		if tc.name == "config mismatch" {
			rOpt.Window = 32 // same blob, different window
		}
		ck := tc.ck
		rOpt.Resume = &ck
		got := runTrace(tage.New(tage.Reference()), tr, rOpt)
		if got.ResumeErr == nil || !strings.Contains(got.ResumeErr.Error(), tc.want) {
			t.Fatalf("%s: ResumeErr = %v, want mention of %q", tc.name, got.ResumeErr, tc.want)
		}
		if rOpt.Window != opt.Window {
			continue // different config: cold result differs by design
		}
		g := got
		g.ResumeErr = nil
		if stripTiming(g) != want {
			t.Errorf("%s: fallback run diverges from cold run:\n  got:  %+v\n  want: %+v", tc.name, stripTiming(g), want)
		}
	}
}

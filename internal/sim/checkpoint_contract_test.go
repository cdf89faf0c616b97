package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/composed"
	"repro/internal/predictor"
	"repro/internal/tage"
)

// ckCall is one OnCheckpoint call, its blob copied.
type ckCall struct {
	at   uint64
	blob []byte
}

// recordCalls returns an OnCheckpoint callback that appends to calls.
func recordCalls(calls *[]ckCall) func([]byte, uint64) {
	return func(blob []byte, at uint64) {
		*calls = append(*calls, ckCall{at, bytes.Clone(blob)})
	}
}

// TestCheckpointPositionsDistinct: OnCheckpoint is called at most once
// per branch position, in cold and in resumed runs, including where a
// periodic checkpoint falls due after the last decode batch, at the
// branch the end-of-trace one is taken at. The end-of-trace call comes
// last, at the trace's end, also in a run resumed mid-trace from a blob
// with nothing in flight (scenario I).
func TestCheckpointPositionsDistinct(t *testing.T) {
	for _, c := range []struct {
		sc       predictor.Scenario
		n, every int
	}{
		{predictor.ScenarioC, 1000, 250},  // due after the last batch (1000 >= 1000)
		{predictor.ScenarioC, 1024, 256},  // every batch, the last one included
		{predictor.ScenarioC, 3000, 1000}, // the last batch's is due at 3000
		{predictor.ScenarioC, 3000, 700},
		{predictor.ScenarioC, 200, 50}, // a single batch
		{predictor.ScenarioC, 200, 500},
		{predictor.ScenarioI, 1000, 250},
		{predictor.ScenarioI, 3000, 700},
	} {
		t.Run(fmt.Sprintf("%s/%d/%d", c.sc, c.n, c.every), func(t *testing.T) {
			tr := ckTrace(c.n)
			ckOpt := Options{Scenario: c.sc, Window: 12, ExecDelay: 3, CheckpointEvery: uint64(c.every)}
			var calls []ckCall
			ckOpt.OnCheckpoint = recordCalls(&calls)
			runTrace(tage.New(tage.Reference()), tr, ckOpt)
			assertDistinct(t, calls, uint64(c.n))
			for _, ck := range calls[:len(calls)-1] {
				var resumed []ckCall
				rOpt := ckOpt
				rOpt.Resume = &Checkpoint{At: ck.at, Blob: ck.blob}
				rOpt.OnCheckpoint = recordCalls(&resumed)
				if r := runTrace(tage.New(tage.Reference()), tr, rOpt); r.ResumeErr != nil {
					t.Fatalf("resume at %d: %v", ck.at, r.ResumeErr)
				}
				assertDistinct(t, resumed, uint64(c.n))
			}
		})
	}
}

func assertDistinct(t *testing.T, calls []ckCall, end uint64) {
	t.Helper()
	seen := make(map[uint64]bool)
	for _, c := range calls {
		if seen[c.at] {
			t.Fatalf("two OnCheckpoint calls at branch %d: %v", c.at, positions(calls))
		}
		seen[c.at] = true
	}
	if len(calls) == 0 || calls[len(calls)-1].at != end {
		t.Fatalf("calls at %v, want the last at the trace's end (%d)", positions(calls), end)
	}
}

func positions(calls []ckCall) []uint64 {
	var at []uint64
	for _, c := range calls {
		at = append(at, c.at)
	}
	return at
}

// TestResumeAtEndTakesNoCheckpoint: a run resumed from its own
// end-of-trace blob has nothing left to simulate and makes no
// OnCheckpoint call, while its result is the cold run's. Resumed from a
// periodic blob taken before the pipeline drained, it drains and takes
// the end-of-trace checkpoint as a cold run does.
func TestResumeAtEndTakesNoCheckpoint(t *testing.T) {
	tr := ckTrace(4000)
	opt := Options{Scenario: predictor.ScenarioA, Window: 16, ExecDelay: 3}
	want := stripTiming(runTrace(tage.New(tage.Reference()), tr, opt))
	var cold []ckCall
	ckOpt := opt
	ckOpt.CheckpointEvery = 1000
	ckOpt.OnCheckpoint = recordCalls(&cold)
	runTrace(tage.New(tage.Reference()), tr, ckOpt)
	end := cold[len(cold)-1]

	var calls []ckCall
	rOpt := ckOpt
	rOpt.Resume = &Checkpoint{At: end.at, Blob: end.blob}
	rOpt.OnCheckpoint = recordCalls(&calls)
	got := runTrace(tage.New(tage.Reference()), tr, rOpt)
	if got.ResumeErr != nil || got.ResumedAt != end.at {
		t.Fatalf("resumed at %d (%v), want %d", got.ResumedAt, got.ResumeErr, end.at)
	}
	if len(calls) != 0 {
		t.Errorf("a run resumed at its trace's end made %d OnCheckpoint calls at %v, want none", len(calls), positions(calls))
	}
	if g := stripTiming(got); !reflect.DeepEqual(g, want) {
		t.Errorf("resumed at the end:\n  got:  %+v\n  want: %+v", g, want)
	}

	// A mid-trace blob resumed over the trace cut at its branch: the run
	// resumes at its trace's end with branches in flight, drains them and
	// takes the end-of-trace checkpoint, as a cold run over the cut trace
	// does.
	mid := cold[0]
	cut := tr.Prefix(int(mid.at))
	var coldCut []ckCall
	cOpt := opt
	cOpt.OnCheckpoint = recordCalls(&coldCut)
	wantCut := stripTiming(runTrace(tage.New(tage.Reference()), cut, cOpt))
	var cutCalls []ckCall
	cOpt.Resume = &Checkpoint{At: mid.at, Blob: mid.blob}
	cOpt.OnCheckpoint = recordCalls(&cutCalls)
	got = runTrace(tage.New(tage.Reference()), cut, cOpt)
	if got.ResumeErr != nil || got.ResumedAt != mid.at {
		t.Fatalf("resumed at %d (%v), want %d", got.ResumedAt, got.ResumeErr, mid.at)
	}
	if g := stripTiming(got); !reflect.DeepEqual(g, wantCut) {
		t.Errorf("resumed at the end with branches in flight:\n  got:  %+v\n  want: %+v", g, wantCut)
	}
	if !reflect.DeepEqual(cutCalls, coldCut) {
		t.Errorf("resumed at the end with branches in flight: calls at %v, the cold run's at %v (or the blobs differ)", positions(cutCalls), positions(coldCut))
	}

	// An empty trace's end-of-trace blob holds nothing in flight, but
	// resumed over this trace it is at its start, not its end: the run
	// checkpoints as a cold run does.
	var empty []ckCall
	eOpt := ckOpt
	eOpt.OnCheckpoint = recordCalls(&empty)
	runTrace(tage.New(tage.Reference()), ckTrace(0), eOpt)
	var fromStart []ckCall
	eOpt.Resume = &Checkpoint{At: 0, Blob: empty[0].blob}
	eOpt.OnCheckpoint = recordCalls(&fromStart)
	got = runTrace(tage.New(tage.Reference()), tr, eOpt)
	if got.ResumeErr != nil {
		t.Fatalf("resumed from an empty trace's blob: %v", got.ResumeErr)
	}
	if !reflect.DeepEqual(fromStart, cold) {
		t.Errorf("resumed from an empty trace's blob: calls at %v, the cold run's at %v (or the blobs differ)", positions(fromStart), positions(cold))
	}
}

// TestRefusedResumeAtEndCheckpointsLikeCold: a resume the simulator
// refuses (a blob from another pipeline, or one claiming more branches
// than the trace holds) runs cold, and checkpoints as the cold run
// does: the same calls at the same branches with the same blobs.
func TestRefusedResumeAtEndCheckpointsLikeCold(t *testing.T) {
	tr := ckTrace(3000)
	opt := Options{Scenario: predictor.ScenarioB, Window: 10, ExecDelay: 2, CheckpointEvery: 800}
	var cold []ckCall
	ckOpt := opt
	ckOpt.OnCheckpoint = recordCalls(&cold)
	want := stripTiming(runTrace(tage.New(tage.Reference()), tr, ckOpt))
	end := cold[len(cold)-1]

	// The same cell's end-of-trace blob under another window, and this
	// window's blob against a shorter trace.
	var other []ckCall
	oOpt := ckOpt
	oOpt.Window = 20
	oOpt.OnCheckpoint = recordCalls(&other)
	runTrace(tage.New(tage.Reference()), tr, oOpt)
	var long []ckCall
	lOpt := ckOpt
	lOpt.OnCheckpoint = recordCalls(&long)
	runTrace(tage.New(tage.Reference()), ckTrace(3500), lOpt)

	for name, blob := range map[string][]byte{
		"another window":   other[len(other)-1].blob,
		"a longer trace":   long[len(long)-1].blob,
		"a corrupted blob": append(bytes.Clone(end.blob[:len(end.blob)/2]), 0xff),
	} {
		t.Run(name, func(t *testing.T) {
			var calls []ckCall
			rOpt := ckOpt
			rOpt.Resume = &Checkpoint{At: end.at, Blob: blob}
			rOpt.OnCheckpoint = recordCalls(&calls)
			got := runTrace(tage.New(tage.Reference()), tr, rOpt)
			if got.ResumeErr == nil {
				t.Fatal("the resume was accepted")
			}
			got.ResumeErr = nil
			if g := stripTiming(got); !reflect.DeepEqual(g, want) {
				t.Errorf("refused resume:\n  got:  %+v\n  want: %+v", g, want)
			}
			if !reflect.DeepEqual(calls, cold) {
				t.Errorf("refused resume checkpointed at %v, the cold run at %v (or the blobs differ)", positions(calls), positions(cold))
			}
		})
	}
}

// TestFirstSnapshotAllocatesItsBlob: a Runner sizes its encoder before
// its first snapshot, so the snapshot allocates its blob once, plus at
// most the allocator's rounding, instead of growing the buffer step by
// step.
func TestFirstSnapshotAllocatesItsBlob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := ckTrace(2000)
	for _, d := range []int{2, 6} {
		t.Run(fmt.Sprintf("tage-lsc@%+d", d), func(t *testing.T) {
			p := composed.New(composed.TAGELSC(tage.Scale(composed.Budget512K(), d), "TAGE-LSC"))
			var rn Runner[composed.Ctx]
			opt := Options{Scenario: predictor.ScenarioA}
			rn.RunTrace(p, tr, opt) // the Runner's rings, and a warm predictor
			p.Reset()
			var blobLen int
			opt.OnCheckpoint = func(blob []byte, at uint64) { blobLen = len(blob) }
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rn.RunTrace(p, tr, opt)
			runtime.ReadMemStats(&after)
			allocated := after.TotalAlloc - before.TotalAlloc
			if limit := uint64(blobLen) + 8<<10; allocated > limit {
				t.Errorf("the first snapshot of a %d-byte blob allocated %d bytes (%.2f×), want at most the blob plus 8 KiB", blobLen, allocated, float64(allocated)/float64(blobLen))
			}
			t.Logf("%d-byte blob: %d bytes allocated (%.3f×)", blobLen, allocated, float64(allocated)/float64(blobLen))
		})
	}
}

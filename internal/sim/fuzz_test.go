package sim

import (
	"testing"

	"repro/internal/predictor"
	"repro/internal/tage"
)

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder
// through the same path a real run uses (Options.Resume). The contract:
// the simulator never panics on a hostile blob — it either resumes
// cleanly, or refuses with ResumeErr set and falls back to a cold run
// whose result is identical to one that never saw the blob.
func FuzzCheckpointDecode(f *testing.F) {
	// A scaled-down TAGE keeps per-exec cost low under fuzz
	// instrumentation while exercising the same decode paths (flattened
	// tables, folded histories, in-flight contexts) as the full one.
	mk := func() *tage.Predictor { return tage.New(tage.Scale(tage.Reference(), -3)) }
	tr := ckTrace(1200)
	opt := Options{Scenario: predictor.ScenarioA, Window: 8, ExecDelay: 2}
	cold := stripTiming(runTrace(mk(), tr, opt))

	// Seed with a genuine blob so mutations start from a decodable state.
	var valid []byte
	ckOpt := opt
	ckOpt.CheckpointEvery = 500
	ckOpt.OnCheckpoint = func(blob []byte, at uint64) {
		if valid == nil {
			valid = append([]byte(nil), blob...)
		}
	}
	runTrace(mk(), tr, ckOpt)
	f.Add(valid)
	f.Add([]byte(nil))
	f.Add([]byte("not a checkpoint"))
	f.Add([]byte("BPCK"))
	f.Add([]byte("BPCK\x01\x00"))
	f.Add([]byte("BPCK\x02\x00rest-does-not-matter"))

	f.Fuzz(func(t *testing.T, blob []byte) {
		ck := &Checkpoint{At: 1, Blob: blob}
		rOpt := opt
		rOpt.Resume = ck
		got := runTrace(mk(), tr, rOpt)
		if got.ResumeErr != nil {
			// Refused: the fallback must be a byte-identical cold run.
			g := got
			g.ResumeErr = nil
			if stripTiming(g) != cold {
				t.Fatalf("cold fallback diverges after refusing blob (%d bytes):\n  got:  %+v\n  want: %+v",
					len(blob), stripTiming(g), cold)
			}
			return
		}
		// Accepted: the run must account for every branch of the trace.
		if got.Branches != uint64(len(tr.Branches)) {
			t.Fatalf("accepted blob (%d bytes) lost branches: ran %d of %d",
				len(blob), got.Branches, len(tr.Branches))
		}
	})
}

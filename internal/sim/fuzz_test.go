package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/predictor"
	"repro/internal/tage"
	"repro/internal/trace"
)

// fuzzSetup is the cell FuzzCheckpointDecode resumes. A scaled-down
// TAGE keeps per-exec cost low under fuzz instrumentation while
// exercising the same decode paths (flattened tables, folded histories,
// in-flight contexts) as the full one.
func fuzzSetup() (mk func() predictor.Predictor[tage.Ctx], tr *trace.Trace, opt Options) {
	mk = func() predictor.Predictor[tage.Ctx] { return tage.New(tage.Scale(tage.Reference(), -3)) }
	return mk, ckTrace(1200), Options{Scenario: predictor.ScenarioA, Window: 8, ExecDelay: 2}
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder
// through the same path a real run uses (Options.Resume). The contract:
// the simulator never panics on a hostile blob — it either resumes
// cleanly, or refuses with ResumeErr set and falls back to a cold run
// whose result is identical to one that never saw the blob.
func FuzzCheckpointDecode(f *testing.F) {
	mk, tr, opt := fuzzSetup()
	cold := stripTiming(runTrace(mk(), tr, opt))

	// Seed with a genuine blob so mutations start from a decodable state,
	// and with the same blob carrying out-of-range context indices.
	f.Add(hostileBlob(f, mk, func(*tage.Ctx) {}, tr, opt, 500))
	f.Add(hostileBlob(f, mk, corruptTageCtx, tr, opt, 500))
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

// TestFuzzCheckpointSeeds pins what the checked-in corpus under
// testdata/fuzz/FuzzCheckpointDecode starts the fuzzer from: seed-valid
// resumes cleanly (so mutations begin from a decodable blob), and
// seed-hostile-ctx, the same checkpoint with every in-flight context
// index past its table, is refused. After a change to the sim or
// predictor section layout, regenerate both with
//
//	BP_WRITE_FUZZ_SEEDS=1 go test -run TestFuzzCheckpointSeeds ./internal/sim
func TestFuzzCheckpointSeeds(t *testing.T) {
	mk, tr, opt := fuzzSetup()
	seeds := []struct {
		file    string
		corrupt func(*tage.Ctx)
		refused bool
	}{
		{"seed-valid", func(*tage.Ctx) {}, false},
		{"seed-hostile-ctx", corruptTageCtx, true},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode")
	for _, s := range seeds {
		path := filepath.Join(dir, s.file)
		if os.Getenv("BP_WRITE_FUZZ_SEEDS") != "" {
			blob := hostileBlob(t, mk, s.corrupt, tr, opt, 500)
			if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", blob)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		blob, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a one-[]byte fuzz corpus file (%v)", s.file, err)
		}
		rOpt := opt
		rOpt.Resume = &Checkpoint{At: 1, Blob: []byte(blob)}
		got := runTrace(mk(), tr, rOpt)
		if refused := got.ResumeErr != nil; refused != s.refused {
			t.Errorf("%s: refused=%v (ResumeErr %v), want refused=%v", s.file, refused, got.ResumeErr, s.refused)
		}
	}
}

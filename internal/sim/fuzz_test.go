package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/composed"
	"repro/internal/predictor"
	"repro/internal/tage"
	"repro/internal/trace"
)

// fuzzSetup is the first cell FuzzCheckpointDecode resumes. A
// scaled-down TAGE keeps per-exec cost low under fuzz instrumentation
// while exercising the same decode paths (flattened tables, folded
// histories, in-flight contexts) as the full one.
func fuzzSetup() (mk func() predictor.Predictor[tage.Ctx], tr *trace.Trace, opt Options) {
	mk = func() predictor.Predictor[tage.Ctx] { return tage.New(tage.Scale(tage.Reference(), -3)) }
	return mk, ckTrace(1200), Options{Scenario: predictor.ScenarioA, Window: 8, ExecDelay: 2}
}

// fuzzStackSetup is the second: the full composed stack (IUM, loop
// predictor, SC and LSC), every part scaled down and its in-flight
// rings shrunk to 8 entries under a 12-branch window, so its
// checkpoints carry overflowed rings with owed pops as well as the
// composed contexts.
func fuzzStackSetup() (mk func() predictor.Predictor[composed.Ctx], tr *trace.Trace, opt Options) {
	mk = func() predictor.Predictor[composed.Ctx] {
		cfg := composed.FullStack(tage.Scale(tage.Reference(), -3), "full")
		cfg.Tage.IUMCapacity, cfg.Loop.SlimCap, cfg.LSC.SLHMCap = stackRingCap, stackRingCap, stackRingCap
		cfg.SC.LogEntries, cfg.LSC.LogEntries = 6, 6
		return composed.New(cfg)
	}
	return mk, ckTrace(1200), Options{Scenario: predictor.ScenarioA, Window: 12, ExecDelay: 2}
}

// stackRingCap is the in-flight ring capacity of the fuzz stack.
const stackRingCap = 8

// fuzzResume resumes one cell from blob. The contract: the simulator
// never panics on a hostile blob — it either resumes cleanly, or
// refuses with ResumeErr set and falls back to a cold run whose result
// is identical to one that never saw the blob.
func fuzzResume[C any](t *testing.T, mk func() predictor.Predictor[C], tr *trace.Trace, opt Options, cold Result, blob []byte) {
	rOpt := opt
	rOpt.Resume = &Checkpoint{At: 1, Blob: blob}
	got := runTrace(mk(), tr, rOpt)
	if got.ResumeErr != nil {
		// Refused: the fallback must be a byte-identical cold run.
		g := got
		g.ResumeErr = nil
		if !reflect.DeepEqual(stripTiming(g), cold) {
			t.Fatalf("%s: cold fallback diverges after refusing blob (%d bytes):\n  got:  %+v\n  want: %+v",
				cold.Predictor, len(blob), stripTiming(g), cold)
		}
		return
	}
	// Accepted: the run must account for every branch of the trace.
	if got.Branches != uint64(tr.Len()) {
		t.Fatalf("%s: accepted blob (%d bytes) lost branches: ran %d of %d",
			cold.Predictor, len(blob), got.Branches, tr.Len())
	}
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder
// through the same path a real run uses (Options.Resume), resuming both
// fuzz cells from each input.
func FuzzCheckpointDecode(f *testing.F) {
	mk, tr, opt := fuzzSetup()
	mkStack, stackTr, stackOpt := fuzzStackSetup()
	cold := stripTiming(runTrace(mk(), tr, opt))
	stackCold := stripTiming(runTrace(mkStack(), stackTr, stackOpt))

	// Seed with genuine blobs so mutations start from a decodable state,
	// and with one carrying out-of-range context indices.
	f.Add(hostileBlob(f, mk, func(*tage.Ctx) {}, tr, opt, 500))
	f.Add(hostileBlob(f, mk, corruptTageCtx, tr, opt, 500))
	f.Add(hostileBlob(f, mkStack, func(*composed.Ctx) {}, stackTr, stackOpt, 500))
	f.Add([]byte(nil))
	f.Add([]byte("not a checkpoint"))
	f.Add([]byte("BPCK"))
	f.Add([]byte("BPCK\x01\x00"))
	f.Add([]byte("BPCK\x02\x00rest-does-not-matter"))

	f.Fuzz(func(t *testing.T, blob []byte) {
		fuzzResume(t, mk, tr, opt, cold, blob)
		fuzzResume(t, mkStack, stackTr, stackOpt, stackCold, blob)
	})
}

// TestFuzzCheckpointSeeds pins what the checked-in corpus under
// testdata/fuzz/FuzzCheckpointDecode starts the fuzzer from: seed-valid
// and seed-stack-valid resume their cells cleanly (so mutations begin
// from decodable blobs; the stack's is taken with more branches in
// flight than its rings hold), and seed-hostile-ctx, seed-valid with
// every in-flight context index past its table, is refused. After a
// change to the sim or predictor section layout, regenerate them with
//
//	BP_WRITE_FUZZ_SEEDS=1 go test -run TestFuzzCheckpointSeeds ./internal/sim
func TestFuzzCheckpointSeeds(t *testing.T) {
	mk, tr, opt := fuzzSetup()
	mkStack, stackTr, stackOpt := fuzzStackSetup()
	resume := func(blob []byte) Result {
		rOpt := opt
		rOpt.Resume = &Checkpoint{At: 1, Blob: blob}
		return runTrace(mk(), tr, rOpt)
	}
	resumeStack := func(blob []byte) Result {
		rOpt := stackOpt
		rOpt.Resume = &Checkpoint{At: 1, Blob: blob}
		return runTrace(mkStack(), stackTr, rOpt)
	}
	seeds := []struct {
		file    string
		gen     func() []byte
		resume  func([]byte) Result
		refused bool
	}{
		{"seed-valid", func() []byte { return hostileBlob(t, mk, func(*tage.Ctx) {}, tr, opt, 500) }, resume, false},
		{"seed-hostile-ctx", func() []byte { return hostileBlob(t, mk, corruptTageCtx, tr, opt, 500) }, resume, true},
		{"seed-stack-valid", func() []byte {
			return hostileBlob(t, mkStack, func(*composed.Ctx) {}, stackTr, stackOpt, 500)
		}, resumeStack, false},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode")
	blobs := make(map[string][]byte)
	for _, s := range seeds {
		path := filepath.Join(dir, s.file)
		if os.Getenv("BP_WRITE_FUZZ_SEEDS") != "" {
			if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.gen())), 0o644); err != nil {
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
		blobs[s.file] = []byte(blob)
		got := s.resume([]byte(blob))
		if refused := got.ResumeErr != nil; refused != s.refused {
			t.Errorf("%s: refused=%v (ResumeErr %v), want refused=%v", s.file, refused, got.ResumeErr, s.refused)
		}
	}

	// Every branch pushes an IUM entry, so more branches in flight than
	// the rings hold means the stack seed carries owed pops.
	full := stackOpt.withDefaults()
	var ln lane[composed.Ctx]
	ln.start(mkStack(), full.Scenario, full.Window)
	var rn Runner[composed.Ctx]
	st, err := rn.decodeCheckpoint(&ln, full, blobs["seed-stack-valid"])
	if err != nil || st.count <= stackRingCap {
		t.Errorf("seed-stack-valid holds %d branches in flight (err %v), want more than the rings' %d", st.count, err, stackRingCap)
	}
}

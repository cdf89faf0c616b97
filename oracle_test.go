package repro

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
)

// The differential oracle: sim.Runner over internal/tage against the
// reference simulator and TAGE of oracle_ref_test.go. For a random
// tage: spec (randSpec), a random window and execution delay and a
// short generator trace, it compares every prediction and the final
// record of
//   - one fused pass over all four scenarios (Options.Also), each lane
//     against its own reference run;
//   - a single-lane run that takes checkpoints;
//   - a run resumed from a checkpoint taken at a random branch;
//   - a run resumed at the trace's end, which takes no checkpoint at all.

// oracleInput is one differential case, drawn from the fuzzer's bytes.
type oracleInput struct {
	specSeed      int64
	window, delay uint8
	kind          uint8
	traceSeed     uint16
	length, split uint16
}

// oracleTraces are the generator kinds the oracle draws traces from.
var oracleTraces = []string{"loopy:", "callret:", "datadep:", "phased:", "ctxflush:", "mix:loopy=1,callret=1,datadep=1"}

// recorder is a TAGE predictor that keeps every prediction it makes.
// Its siblings record too, so a fused pass records each lane.
type recorder struct {
	*tage.Predictor
	preds []bool
	sibs  []*recorder
}

func (r *recorder) Predict(pc uint64, ctx *tage.Ctx) bool {
	pred := r.Predictor.Predict(pc, ctx)
	r.preds = append(r.preds, pred)
	return pred
}

func (r *recorder) Sibling() predictor.Predictor[tage.Ctx] {
	s := &recorder{Predictor: r.Predictor.Sibling().(*tage.Predictor)}
	r.sibs = append(r.sibs, s)
	return s
}

// oracleSpec draws a tage: spec from randSpec, without the IUM, which
// the reference does not model.
func oracleSpec(r *rand.Rand) models.Spec {
	for {
		raw := randSpec(r)
		if !strings.HasPrefix(raw, "tage:") {
			continue
		}
		s, err := models.ParseSpec(raw)
		if err != nil {
			panic(fmt.Sprintf("randSpec drew %q: %v", raw, err))
		}
		if s, err = s.WithField("ium", "0"); err != nil {
			panic(err)
		}
		return s
	}
}

// refConfig reads a tage: spec as the README documents it: tables
// (default 12), a uniform log (default: the reference sizes at 12
// tables, 11 otherwise), a uniform tag (default min(5+i, 15) for table
// Ti), hist lo:hi (default 6:2000), bim, alloc, seed and banked; @d
// then scales every table by 2^d.
func refConfig(s models.Spec) tage.Config {
	atoi := func(key string, def int) int {
		if v, ok := s.Field(key); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				panic(err)
			}
			return n
		}
		return def
	}
	tables := atoi("tables", 12)
	cfg := tage.Config{MinHist: 6, MaxHist: 2000}
	ref := tage.Reference()
	for i := range tables {
		l := 11
		if tables == len(ref.TableLogs) {
			l = int(ref.TableLogs[i])
		}
		cfg.TableLogs = append(cfg.TableLogs, uint(atoi("log", l)))
		cfg.TagBits = append(cfg.TagBits, uint(atoi("tag", min(5+i+1, 15))))
	}
	if v, ok := s.Field("hist"); ok {
		lo, hi, _ := strings.Cut(v, ":")
		cfg.MinHist, _ = strconv.Atoi(lo)
		cfg.MaxHist, _ = strconv.Atoi(hi)
	}
	cfg.LogBimodal = uint(atoi("bim", 0))
	cfg.MaxAlloc = atoi("alloc", 0)
	cfg.Seed = uint64(atoi("seed", 0))
	cfg.Interleaved = atoi("banked", 0) == 1
	if d, ok := s.Delta(); ok {
		cfg = tage.Scale(cfg, d)
	}
	return cfg
}

// oracleRecord is a Result's record: what a cell reports, without its
// names, wall-clock telemetry and resume bookkeeping.
func oracleRecord(r Result) Result {
	r.Trace, r.Category, r.Predictor = "", "", ""
	r.Elapsed, r.BranchesPerSec = 0, 0
	r.ResumedAt, r.ResumeErr, r.Also = 0, nil, nil
	return r
}

// firstDiff returns the first index where two prediction sequences
// differ, or -1.
func firstDiff(a, b []bool) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func checkAgainstReference(t *testing.T, in oracleInput) {
	t.Helper()
	r := rand.New(rand.NewSource(in.specSeed))
	spec := oracleSpec(r)
	m, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := refConfig(spec)
	build := func() *recorder { return &recorder{Predictor: m.NewPredictor().(*tage.Predictor)} }
	length := 300 + int(in.length)%1200
	trSpec := fmt.Sprintf("%s#%d", oracleTraces[int(in.kind)%len(oracleTraces)], in.traceSeed)
	tr, err := GenerateTrace(trSpec, length)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{ScenarioI, ScenarioA, ScenarioB, ScenarioC}
	r.Shuffle(len(scenarios), func(i, j int) { scenarios[i], scenarios[j] = scenarios[j], scenarios[i] })
	opt := Options{Scenario: scenarios[0], Window: 1 + int(in.window)%64, ExecDelay: 1 + int(in.delay)%16}
	name := fmt.Sprintf("%s on %s×%d, window %d, delay %d", spec, trSpec, length, opt.Window, opt.ExecDelay)

	want := make(map[Scenario]refRun)
	for _, sc := range scenarios {
		want[sc] = refSimulate(cfg, tr, sc, opt.Window, opt.ExecDelay, 20)
	}
	check := func(what string, sc Scenario, preds []bool, got Result, from uint64) {
		t.Helper()
		w := want[sc]
		if i := firstDiff(preds, w.preds[from:]); i >= 0 {
			t.Fatalf("%s, %s, %s: prediction %d of %d differs from the reference (%d predictions, reference %d)",
				name, what, sc, from+uint64(i), len(w.preds), len(preds), len(w.preds[from:]))
		}
		if g := oracleRecord(got); !reflect.DeepEqual(g, w.res) {
			t.Fatalf("%s, %s, %s: record differs from the reference:\n  got:       %+v\n  reference: %+v", name, what, sc, g, w.res)
		}
	}

	// One fused pass over the four scenarios.
	lead := build()
	fused := opt
	fused.Also = scenarios[1:]
	res := sim.Pooled[tage.Ctx](lead)(tr, fused)
	if len(res.Also) != len(scenarios)-1 {
		t.Fatalf("%s: fused pass returned %d Also results", name, len(res.Also))
	}
	check("fused lead", scenarios[0], lead.preds, res, 0)
	for i, sc := range scenarios[1:] {
		check("fused lane", sc, lead.sibs[i].preds, res.Also[i], 0)
	}

	// One lane taking checkpoints every split branches.
	var cks []Checkpoint
	ckOpt := opt
	ckOpt.CheckpointEvery = 1 + uint64(in.split)%uint64(length-1)
	ckOpt.OnCheckpoint = func(blob []byte, at uint64) {
		cks = append(cks, Checkpoint{At: at, Blob: slices.Clone(blob)})
	}
	var rn sim.Runner[tage.Ctx]
	cold := build()
	check("checkpointing run", opt.Scenario, cold.preds, rn.RunTrace(cold, tr, ckOpt), 0)
	if len(cks) == 0 || cks[len(cks)-1].At != uint64(length) {
		t.Fatalf("%s: checkpoints at %v, want the last at the trace's end", name, cks)
	}

	// Resumed at the first checkpoint, which may be mid-trace.
	resume := func(ck Checkpoint) (*recorder, Result, []Checkpoint) {
		p := build()
		o := ckOpt
		o.Resume = &ck
		var calls []Checkpoint
		o.OnCheckpoint = func(blob []byte, at uint64) {
			calls = append(calls, Checkpoint{At: at, Blob: slices.Clone(blob)})
		}
		got := rn.RunTrace(p, tr, o)
		if got.ResumeErr != nil || got.ResumedAt != ck.At {
			t.Fatalf("%s: resume at %d: resumed at %d, %v", name, ck.At, got.ResumedAt, got.ResumeErr)
		}
		return p, got, calls
	}
	end := cks[len(cks)-1]
	p, got, calls := resume(cks[0])
	check(fmt.Sprintf("resumed at %d", cks[0].At), opt.Scenario, p.preds, got, cks[0].At)
	if cks[0].At < end.At {
		// It checkpoints on to the end, and its last blob is the cold
		// run's.
		if n := len(calls); n == 0 || calls[n-1].At != end.At || !slices.Equal(calls[n-1].Blob, end.Blob) {
			t.Fatalf("%s: a run resumed at %d took %d checkpoints, want the last at %d with the cold run's blob", name, cks[0].At, n, end.At)
		}
	}

	// Resumed at the end: nothing left to simulate, and nothing new to
	// checkpoint.
	p, got, calls = resume(end)
	check("resumed at the end", opt.Scenario, p.preds, got, end.At)
	if len(calls) != 0 {
		t.Fatalf("%s: a run resumed at its trace's end made %d OnCheckpoint calls, want 0", name, len(calls))
	}
}

// TestReferenceTAGEAgrees runs the differential oracle over a fixed
// set of cases.
func TestReferenceTAGEAgrees(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 3
	}
	r := rand.New(rand.NewSource(0x0ac1e))
	for i := range n {
		in := oracleInput{
			specSeed: r.Int63(), window: uint8(r.Intn(256)), delay: uint8(r.Intn(256)),
			kind: uint8(i), traceSeed: uint16(r.Intn(100)),
			length: uint16(r.Intn(65536)), split: uint16(r.Intn(65536)),
		}
		t.Run(strconv.Itoa(i), func(t *testing.T) { checkAgainstReference(t, in) })
	}
}

// FuzzReferenceTAGE runs the differential oracle on fuzzed cases.
func FuzzReferenceTAGE(f *testing.F) {
	f.Add(int64(1), uint8(23), uint8(5), uint8(0), uint16(1), uint16(700), uint16(300))
	f.Add(int64(7), uint8(3), uint8(9), uint8(2), uint16(2), uint16(0), uint16(1))
	f.Add(int64(42), uint8(63), uint8(0), uint8(5), uint16(3), uint16(1199), uint16(255))
	f.Fuzz(func(t *testing.T, specSeed int64, window, delay, kind uint8, traceSeed, length, split uint16) {
		checkAgainstReference(t, oracleInput{specSeed, window, delay, kind, traceSeed, length, split})
	})
}

package sim

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bimodal"
	"repro/internal/composed"
	"repro/internal/ftlpp"
	"repro/internal/gehl"
	"repro/internal/gshare"
	"repro/internal/neural"
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
	if got := stripTiming(runTrace(tage.New(tage.Reference()), tr, ckOpt)); !reflect.DeepEqual(got, want) {
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
		if g := stripTiming(got); !reflect.DeepEqual(g, want) {
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
		if !reflect.DeepEqual(stripTiming(g), want) {
			t.Errorf("%s: fallback run diverges from cold run:\n  got:  %+v\n  want: %+v", tc.name, stripTiming(g), want)
		}
	}
}

// hostileIndex is far past every table of every predictor configuration.
const hostileIndex = 1 << 30

// resumeHostileContexts takes a genuine mid-trace checkpoint, rewrites
// the index fields of every in-flight context past the predictor's
// tables, re-encodes it, and resumes from it. The blob is well framed
// and every predictor section is intact, so only the context
// validation stands between it and an out-of-range table access at
// retire: the resume must be refused, and the run must be exactly the
// cold run.
func resumeHostileContexts[C any](t *testing.T, mk func() predictor.Predictor[C], corrupt func(*C)) {
	t.Helper()
	tr := ckTrace(6000)
	opt := Options{Scenario: predictor.ScenarioA, Window: 16, ExecDelay: 3}
	cold := stripTiming(runTrace(mk(), tr, opt))

	hostile := hostileBlob(t, mk, corrupt, tr, opt, 2500)
	rOpt := opt
	rOpt.Resume = &Checkpoint{At: 2500, Blob: hostile}
	got := runTrace(mk(), tr, rOpt)
	if got.ResumeErr == nil {
		t.Fatal("checkpoint with out-of-range in-flight context indices was accepted")
	}
	g := got
	g.ResumeErr = nil
	if !reflect.DeepEqual(stripTiming(g), cold) {
		t.Fatalf("cold fallback diverges from a cold run:\n  got:  %+v\n  want: %+v", stripTiming(g), cold)
	}
}

// hostileBlob returns the first checkpoint a run of mk over tr emits
// (every `every` branches), with corrupt applied to each in-flight
// context.
func hostileBlob[C any](t testing.TB, mk func() predictor.Predictor[C], corrupt func(*C), tr *trace.Trace, opt Options, every uint64) []byte {
	t.Helper()
	var mid []byte
	ckOpt := opt
	ckOpt.CheckpointEvery = every
	ckOpt.OnCheckpoint = func(blob []byte, at uint64) {
		if mid == nil {
			mid = append([]byte(nil), blob...)
		}
	}
	runTrace(mk(), tr, ckOpt)

	full := opt.withDefaults()
	var ln lane[C]
	ln.start(mk(), full.Scenario, full.Window)
	var rn Runner[C]
	st, err := rn.decodeCheckpoint(&ln, full, mid)
	if err != nil {
		t.Fatalf("decoding a genuine checkpoint: %v", err)
	}
	if st.count == 0 {
		t.Fatal("checkpoint carries no in-flight branches")
	}
	for i := 0; i < st.count; i++ {
		corrupt(&ln.ring[i].ctx)
	}
	return rn.encodeCheckpoint(&ln, full, st)
}

func corruptTageCtx(c *tage.Ctx) {
	c.BimIdx = hostileIndex
	for i := range c.Ent {
		c.Ent[i] = c.Ent[i]&^0xffff_ffff | hostileIndex
	}
}

func corruptComposedCtx(c *composed.Ctx) {
	corruptTageCtx(&c.Tage)
	c.Loop.Set, c.Loop.Way = hostileIndex, hostileIndex
	for i := range c.SC.Indices {
		c.SC.Indices[i] = hostileIndex
	}
	for i := range c.LSC.Indices {
		c.LSC.Indices[i] = hostileIndex
	}
	c.LSC.LhtIdx = hostileIndex
}

// TestResumeRefusesHostileContexts covers every predictor kind and the
// composed stacks (loop, SC, LSC and IUM contexts included).
func TestResumeRefusesHostileContexts(t *testing.T) {
	t.Run("tage", func(t *testing.T) {
		resumeHostileContexts(t, func() predictor.Predictor[tage.Ctx] { return tage.New(tage.Reference()) }, corruptTageCtx)
	})
	stacks := map[string]func() composed.Config{
		"tage-lsc": func() composed.Config { return composed.TAGELSC(composed.Budget512K(), "TAGE-LSC") },
		"isl-tage": func() composed.Config { return composed.ISLTAGE(tage.Reference(), "ISL-TAGE") },
		"tage-lsc-banked": func() composed.Config {
			tcfg := composed.Budget512K()
			tcfg.Interleaved = true
			c := composed.TAGELSC(tcfg, "TAGE-LSC-interleaved")
			c.LSC.Interleaved = true
			return c
		},
		"full-stack": func() composed.Config { return composed.FullStack(tage.Reference(), "full") },
	}
	for name, cfg := range stacks {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			resumeHostileContexts(t, func() predictor.Predictor[composed.Ctx] { return composed.New(cfg()) }, corruptComposedCtx)
		})
	}
	t.Run("gshare", func(t *testing.T) {
		resumeHostileContexts(t, func() predictor.Predictor[gshare.Ctx] { return gshare.New(18) },
			func(c *gshare.Ctx) { c.Index = hostileIndex })
	})
	t.Run("bimodal", func(t *testing.T) {
		resumeHostileContexts(t, func() predictor.Predictor[bimodal.Ctx] { return bimodal.NewStandalone(12, 10) },
			func(c *bimodal.Ctx) { c.Index = hostileIndex })
	})
	t.Run("gehl", func(t *testing.T) {
		resumeHostileContexts(t, func() predictor.Predictor[gehl.Ctx] { return gehl.New(gehl.Config{}) },
			func(c *gehl.Ctx) {
				for i := range c.Indices {
					c.Indices[i] = hostileIndex
				}
			})
	})
	t.Run("ohsnap", func(t *testing.T) {
		resumeHostileContexts(t, func() predictor.Predictor[neural.Ctx] { return neural.New(neural.Config{}) },
			func(c *neural.Ctx) {
				c.BiasIdx = hostileIndex
				for i := range c.Cells {
					c.Cells[i] = hostileIndex
				}
			})
	})
	t.Run("ftlpp", func(t *testing.T) {
		resumeHostileContexts(t, func() predictor.Predictor[ftlpp.Ctx] { return ftlpp.New(ftlpp.Config{}) },
			func(c *ftlpp.Ctx) {
				for i := range c.GIdx {
					c.GIdx[i], c.LIdx[i] = hostileIndex, hostileIndex
				}
			})
	})
}

// TestResumeRefusesVersion1Rings: the IUM, loop and LSC sections went to
// version 2 when their in-flight rings gained the owed-pop cursor. A
// blob carrying any of them at version 1 is refused, and the run is
// exactly the cold run.
func TestResumeRefusesVersion1Rings(t *testing.T) {
	mk := func() predictor.Predictor[composed.Ctx] {
		return composed.New(composed.FullStack(tage.Scale(tage.Reference(), -2), "full"))
	}
	tr := ckTrace(6000)
	opt := Options{Scenario: predictor.ScenarioA, Window: 16, ExecDelay: 3}
	cold := stripTiming(runTrace(mk(), tr, opt))
	blob := hostileBlob(t, mk, func(*composed.Ctx) {}, tr, opt, 2500)
	for _, name := range []string{"ium", "loop", "lsc"} {
		t.Run(name, func(t *testing.T) {
			header := binary.LittleEndian.AppendUint32(nil, uint32(len(name)))
			header = binary.LittleEndian.AppendUint16(append(header, name...), 2)
			at := bytes.Index(blob, header)
			if at < 0 || bytes.Count(blob, header) != 1 {
				t.Fatalf("section %q at version 2 not found exactly once in the blob", name)
			}
			old := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint16(old[at+len(header)-2:], 1)
			rOpt := opt
			rOpt.Resume = &Checkpoint{At: 2500, Blob: old}
			got := runTrace(mk(), tr, rOpt)
			if got.ResumeErr == nil || !strings.Contains(got.ResumeErr.Error(), "written under version 1, but this binary reads only version 2") {
				t.Fatalf("version-1 %s section: ResumeErr = %v, want a refusal of the old layout", name, got.ResumeErr)
			}
			got.ResumeErr = nil
			if !reflect.DeepEqual(stripTiming(got), cold) {
				t.Fatalf("cold fallback diverges from a cold run:\n  got:  %+v\n  want: %+v", stripTiming(got), cold)
			}
		})
	}
}

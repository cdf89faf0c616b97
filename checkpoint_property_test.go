package repro

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

// The checkpoint/resume property suite. PR 8's contract: for any model
// spec, scenario and split point, snapshotting a simulation mid-trace
// and continuing from the restored snapshot produces a Result
// byte-identical to the uninterrupted run — the warm cache can never
// change what a sweep measures, only when its work happens.

// stripResumeTiming zeroes the fields that legitimately differ between
// a full run and a resumed one: wall-clock telemetry and the resume
// bookkeeping itself.
func stripResumeTiming(r Result) Result {
	r.Elapsed, r.BranchesPerSec = 0, 0
	r.ResumedAt = 0
	return r
}

// checkpointSpecs spans the predictor zoo: every named model (all ~10
// Snapshot/Restore implementations, including the composed ISL-TAGE /
// LSC stacks and the neural and FTL++ outliers), parameterised specs,
// an explicit composed stack, and @±d scaled variants.
var checkpointSpecs = []string{
	"tage", "gshare", "gehl", "ftlpp", "ohsnap",
	"isl-tage", "tage-ium", "tage-lsc", "tage-lsc-banked",
	"tage:tables=9,hist=6:300",
	"gshare:log=13",
	"composed:tage+ium+lsc",
	"tage@+1",
	"tage-lsc@-1",
}

func TestCheckpointResumeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5e2c))
	scenarios := []Scenario{ScenarioI, ScenarioA, ScenarioB, ScenarioC}
	traces := []string{"INT01", "MM05", "SERVER03", "WS07"}
	const branches = 12000

	for i, spec := range checkpointSpecs {
		spec := spec
		sc := scenarios[i%len(scenarios)]
		trName := traces[rng.Intn(len(traces))]
		split := uint64(1000 + rng.Intn(branches-2000)) // random mid-trace split
		t.Run(spec, func(t *testing.T) {
			m, err := LookupModel(spec)
			if err != nil {
				t.Fatal(err)
			}
			tr := MustGenerateTrace(trName, branches)
			opt := Options{Scenario: sc, Window: 16, ExecDelay: 4}
			want := stripResumeTiming(m.Run(tr, opt))

			var cks []Checkpoint
			ckOpt := opt
			ckOpt.CheckpointEvery = split
			ckOpt.OnCheckpoint = func(blob []byte, at uint64) {
				cks = append(cks, Checkpoint{At: at, Blob: append([]byte(nil), blob...)})
			}
			if got := stripResumeTiming(m.Run(tr, ckOpt)); !reflect.DeepEqual(got, want) {
				t.Fatalf("emitting checkpoints perturbed the run:\n  with:    %+v\n  without: %+v", got, want)
			}
			if len(cks) < 2 {
				t.Fatalf("got %d checkpoints, want a mid-trace one and the final one", len(cks))
			}
			// First (mid-trace) and last (end-of-trace) splits both must
			// continue to the uninterrupted result.
			for _, ck := range []Checkpoint{cks[0], cks[len(cks)-1]} {
				ck := ck
				rOpt := opt
				rOpt.Resume = &ck
				got := m.Run(tr, rOpt)
				if got.ResumeErr != nil {
					t.Fatalf("%s %s split %d: resume failed: %v", trName, sc, ck.At, got.ResumeErr)
				}
				if got.ResumedAt != ck.At {
					t.Errorf("split %d: run skipped %d branches", ck.At, got.ResumedAt)
				}
				if g := stripResumeTiming(got); !reflect.DeepEqual(g, want) {
					t.Errorf("%s %s split %d: resumed run diverges:\n  resumed: %+v\n  full:    %+v",
						trName, sc, ck.At, g, want)
				}
			}
		})
	}
}

// TestWideWindowResume covers windows wider than the 64-entry IUM,
// SLIM and SLHM rings. An overflow drops a ring's oldest record and
// the retire of that record's branch pays an owed pop, so the composed
// stacks run to completion, and resuming from any mid-trace checkpoint
// (owed pops included) continues to the uninterrupted result. MM01
// mispredicts rarely, so its windows stay full and overflow often.
func TestWideWindowResume(t *testing.T) {
	specs := []string{"tage-lsc", "isl-tage", "composed:tage+ium+loop+gsc+lsc"}
	for _, spec := range specs {
		for _, trName := range []string{"INT01", "MM01"} {
			t.Run(spec+"/"+trName, func(t *testing.T) {
				m, err := LookupModel(spec)
				if err != nil {
					t.Fatal(err)
				}
				tr := MustGenerateTrace(trName, 12000)
				opt := Options{Scenario: ScenarioA, Window: 100}
				want := stripResumeTiming(m.Run(tr, opt))
				if want.Branches != 12000 {
					t.Fatalf("ran %d of 12000 branches", want.Branches)
				}
				var cks []Checkpoint
				ckOpt := opt
				ckOpt.CheckpointEvery = 2500
				ckOpt.OnCheckpoint = func(blob []byte, at uint64) {
					cks = append(cks, Checkpoint{At: at, Blob: append([]byte(nil), blob...)})
				}
				m.Run(tr, ckOpt)
				for _, ck := range cks[:len(cks)-1] {
					rOpt := opt
					rOpt.Resume = &ck
					got := m.Run(tr, rOpt)
					if got.ResumeErr != nil {
						t.Fatalf("split %d: resume failed: %v", ck.At, got.ResumeErr)
					}
					if g := stripResumeTiming(got); !reflect.DeepEqual(g, want) {
						t.Errorf("split %d: resumed run diverges:\n  resumed: %+v\n  full:    %+v", ck.At, g, want)
					}
				}
			})
		}
	}
}

// TestWindow64ResultsPinned: a 64-branch window never holds more
// branches than the 64-entry IUM, SLIM and SLHM rings, so the owed pops
// of an overflow never come into play there. Its mispredictions and
// entry writes are pinned as they were before rings owed pops.
func TestWindow64ResultsPinned(t *testing.T) {
	pinned := map[string][2]uint64{
		"tage-lsc/INT01":                       {1053, 15402},
		"tage-lsc/MM01":                        {151, 2584},
		"isl-tage/INT01":                       {1100, 14203},
		"isl-tage/MM01":                        {154, 2329},
		"tage-ium/INT01":                       {1106, 8000},
		"tage-ium/MM01":                        {171, 1468},
		"composed:tage+ium+loop+gsc+lsc/INT01": {1079, 21838},
		"composed:tage+ium+loop+gsc+lsc/MM01":  {134, 3408},
	}
	for cell, want := range pinned {
		spec, trName, _ := strings.Cut(cell, "/")
		m, err := LookupModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := m.Run(MustGenerateTrace(trName, 12000), Options{Scenario: ScenarioA, Window: 64})
		if got := [2]uint64{r.Mispredicts, r.Access.EntryWrites}; got != want {
			t.Errorf("%s at window 64: mispredicts, entry writes = %v, pinned %v", cell, got, want)
		}
	}
}

// TestCheckpointRefusesNewerFormat: a blob stamped with a future format
// version must be refused with a message pointing at the version skew —
// never half-decoded — and the run must fall back to a cold start that
// matches an uncheckpointed run exactly.
func TestCheckpointRefusesNewerFormat(t *testing.T) {
	m, err := LookupModel("tage")
	if err != nil {
		t.Fatal(err)
	}
	tr := MustGenerateTrace("INT01", 6000)
	opt := Options{Scenario: ScenarioA}
	want := stripResumeTiming(m.Run(tr, opt))

	var blob []byte
	ckOpt := opt
	ckOpt.CheckpointEvery = 2000
	ckOpt.OnCheckpoint = func(b []byte, at uint64) {
		if blob == nil {
			blob = append([]byte(nil), b...)
		}
	}
	m.Run(tr, ckOpt)
	if len(blob) < 6 {
		t.Fatalf("no checkpoint captured")
	}
	// Bytes 4..5 hold the little-endian format version after the magic.
	future := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint16(future[4:6], binary.LittleEndian.Uint16(blob[4:6])+1)

	rOpt := opt
	rOpt.Resume = &Checkpoint{Blob: future}
	got := m.Run(tr, rOpt)
	if got.ResumeErr == nil {
		t.Fatal("future-format blob was accepted")
	}
	if msg := got.ResumeErr.Error(); !strings.Contains(msg, "understands at most format") {
		t.Fatalf("refusal does not explain the version skew: %v", msg)
	}
	g := got
	g.ResumeErr = nil
	if !reflect.DeepEqual(stripResumeTiming(g), want) {
		t.Fatalf("cold fallback after refusal diverges from a cold run:\n  got:  %+v\n  want: %+v", stripResumeTiming(g), want)
	}
}

// TestRestoreKeepsNoViewOfItsBlob: a restored predictor owns its state.
// A warm-cache worker reads every blob into one buffer that its next
// load overwrites, which is safe only while Restore copies what it
// decodes. For random specs of every randSpec kind, a predictor
// restored from a copy of a warmed predictor's sections must snapshot
// to those same bytes after the copy is overwritten.
func TestRestoreKeepsNoViewOfItsBlob(t *testing.T) {
	type state interface {
		Snapshot(enc *checkpoint.Encoder)
		Restore(dec *checkpoint.Decoder)
	}
	rng := rand.New(rand.NewSource(0xb10b))
	tr := MustGenerateTrace("MM05", 3000)
	drawn := make(map[string]int)
	for range 24 {
		spec := randSpec(rng)
		drawn[spec[:strings.Index(spec, ":")]]++
		m, err := LookupModel(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		var blob []byte
		m.Run(tr, Options{Scenario: ScenarioA, OnCheckpoint: func(b []byte, at uint64) {
			blob = append(blob[:0], b...)
		}})
		want := predictorSections(t, blob)

		p := m.NewPredictor().(state)
		view := bytes.Clone(want)
		dec := checkpoint.NewDecoder(view)
		p.Restore(dec)
		if err := dec.Err(); err != nil {
			t.Fatalf("%s: restoring its own sections: %v", spec, err)
		}
		for i := range view {
			view[i] = ^view[i]
		}
		enc := checkpoint.NewEncoder()
		p.Snapshot(enc)
		if !bytes.Equal(enc.Blob(), want) {
			t.Errorf("%s: snapshot after its restore blob was overwritten differs from the blob (%d vs %d bytes)", spec, len(enc.Blob()), len(want))
		}
	}
	for _, kind := range []string{"tage", "gshare", "gehl", "composed"} {
		if drawn[kind] == 0 {
			t.Errorf("no %s spec drawn: %v", kind, drawn)
		}
	}
}

// predictorSections returns the predictor part of a simulator checkpoint
// blob: the blob header followed by everything after the leading "sim"
// section, i.e. exactly the bytes a fresh Encoder holds after the
// predictor's Snapshot. The sim section's own layout is free to change
// under its version; the predictor sections are pinned below.
func predictorSections(t *testing.T, blob []byte) []byte {
	t.Helper()
	const header = 6 // magic + format version
	off := header
	if len(blob) < off+4 {
		t.Fatalf("blob too short (%d bytes)", len(blob))
	}
	nameLen := int(binary.LittleEndian.Uint32(blob[off:]))
	off += 4
	if string(blob[off:off+nameLen]) != "sim" {
		t.Fatalf("first section is %q, want sim", blob[off:off+nameLen])
	}
	off += nameLen + 2 // name, version
	off += 4 + int(binary.LittleEndian.Uint32(blob[off:]))
	return append(append([]byte(nil), blob[:header]...), blob[off:]...)
}

// pinnedSectionHashes is the FNV-64a of each checkpointSpecs predictor's
// Snapshot bytes after a scenario-[A] run over the first 6000 branches
// of INT01. Every walk must keep its section order, field widths and
// versions, so a change here means existing warm-cache blobs stop
// restoring; it needs a section version bump, not a table edit.
var pinnedSectionHashes = map[string]uint64{
	"tage":                     0xbda6dd9d7ec58079,
	"gshare":                   0xf90800e6b7fba1b1,
	"gehl":                     0x1ba15dc609a66dda,
	"ftlpp":                    0x92fcf0a7db80a412,
	"ohsnap":                   0x739a9fb09c3feae4,
	"isl-tage":                 0x8308cca38b8f7474,
	"tage-ium":                 0xd203c63b62e3bd67,
	"tage-lsc":                 0x3810f6aad27731a7,
	"tage-lsc-banked":          0xa01c0f1491cb9450,
	"tage:tables=9,hist=6:300": 0x742e9692c845c459,
	"gshare:log=13":            0xa6f1a8ee285de171,
	"composed:tage+ium+lsc":    0x98fb8c6d60d676ff,
	"tage@+1":                  0xc4933c6c3b2371d2,
	"tage-lsc@-1":              0x71a611616eecdfc0,
}

// TestPredictorSectionsPinned holds every predictor's Snapshot encoding
// byte-identical to the pinned table, and checks that a warmed predictor
// Reset through the pool snapshots to exactly the bytes of a freshly
// built one.
func TestPredictorSectionsPinned(t *testing.T) {
	tr := MustGenerateTrace("INT01", 6000)
	empty := &Trace{Name: "empty", Category: "TEST"}
	opt := Options{Scenario: ScenarioA}
	final := func(run func(*Trace, Options) Result, tr *Trace) []byte {
		var blob []byte
		o := opt
		o.OnCheckpoint = func(b []byte, at uint64) { blob = append([]byte(nil), b...) }
		run(tr, o)
		if blob == nil {
			t.Fatal("no end-of-trace checkpoint")
		}
		return blob
	}
	for _, spec := range checkpointSpecs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			m, err := LookupModel(spec)
			if err != nil {
				t.Fatal(err)
			}
			pooled := m.NewRunner()
			sections := predictorSections(t, final(pooled, tr))
			h := fnv.New64a()
			h.Write(sections)
			got := h.Sum64()
			if want, ok := pinnedSectionHashes[spec]; !ok || got != want {
				t.Errorf("predictor sections hash %#016x, pinned %#016x (%d bytes)", got, want, len(sections))
			}
			// The pool Resets before its next run; an empty trace
			// snapshots that state as it stands.
			reset := final(pooled, empty)
			fresh := final(m.Run, empty)
			if !bytes.Equal(reset, fresh) {
				t.Errorf("warmed-then-Reset snapshot (%d bytes) differs from a freshly built one (%d bytes)", len(reset), len(fresh))
			}
		})
	}
}

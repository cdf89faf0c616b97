package tage

import (
	"testing"

	"repro/internal/bitutil"
	"repro/internal/histories"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fullHistory recomputes a configuration's front end anew at
// every branch: the global history kept whole, every fold rebuilt from
// it with histories.Folded.Recompute on a fresh fold of the shape the
// configuration implies, and the bank chosen by a selector of its own.
// It shares nothing with the predictor but the configuration.
type fullHistory struct {
	cfg          Config
	lengths      []int
	g            *histories.Global
	prev1, prev2 int // banks of the two previous predictions (-1 = none)
}

func newFullHistory(cfg Config) *fullHistory {
	cfg = cfg.withDefaults()
	return &fullHistory{
		cfg:     cfg,
		lengths: histories.GeometricSeries(cfg.MinHist, cfg.MaxHist, len(cfg.TableLogs)),
		g:       histories.NewGlobal(cfg.MaxHist + 64),
		prev1:   -1, prev2: -1,
	}
}

// fold is a fold of length history bits into width bits, recomputed.
func (o *fullHistory) fold(length int, width uint) uint32 {
	f := histories.NewFolded(length, width)
	f.Recompute(o.g)
	return f.Value()
}

// predict returns the bimodal index and each tagged table's index and
// tag for the branch at pc, and records its bank.
func (o *fullHistory) predict(pc uint64) (bimIdx uint32, idx []uint32, tags []uint16) {
	bank, banks := uint32(0), uint32(4)
	if o.cfg.Interleaved {
		b := int(((pc >> 2) ^ (pc >> 4)) & 3)
		for b == o.prev1 || b == o.prev2 {
			b = (b + 1) & 3
		}
		o.prev2, o.prev1 = o.prev1, b
		bank = uint32(b)
		per := uint32(1) << o.cfg.LogBimodal / banks
		bimIdx = bank*per + uint32(pc>>2)&(per-1)
	} else {
		bimIdx = uint32(pc>>2) & uint32(bitutil.Mask(o.cfg.LogBimodal))
	}
	h := uint32(pc >> 2)
	for i, l := range o.cfg.TableLogs {
		width := l
		if o.cfg.Interleaved {
			width -= 2
		}
		tagBits := o.cfg.TagBits[i]
		tag2Bits := max(tagBits-1, 1)
		n := o.lengths[i]
		shift := uint(i)%width + 1
		ix := (h ^ h>>shift ^ o.fold(n, width)) & uint32(bitutil.Mask(width))
		if o.cfg.Interleaved {
			ix |= bank << width
		}
		tg := uint16(h^o.fold(n, tagBits)^o.fold(n, tag2Bits)<<1) & uint16(bitutil.Mask(tagBits))
		idx = append(idx, ix)
		tags = append(tags, tg)
	}
	return bimIdx, idx, tags
}

// TestFrontEndMatchesFullHistory is the front end's oracle. A leader and
// a sibling run different update scenarios over a named and a generator
// trace, so their tables drift apart; at every branch each table's
// index and tag in both contexts must equal the ones recomputed from
// the full global history.
func TestFrontEndMatchesFullHistory(t *testing.T) {
	ref := Reference()
	banked := Reference()
	banked.Interleaved = true
	withIUM := Reference()
	withIUM.UseIUM = true
	configs := []struct {
		name string
		cfg  Config
	}{
		{"reference", ref},
		{"interleaved", banked},
		{"ium", withIUM},
		{"scale-3", Scale(ref, -3)},
		{"scale+3", Scale(ref, 3)},
	}
	// Longer than the longest history, so every fold's window slides.
	const branches = 2400
	var traces []*trace.Trace
	for _, name := range []string{"INT01", "phased:period=512#3"} {
		spec, err := workload.ResolveSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, workload.Generate(spec, branches))
	}
	for _, c := range configs {
		for _, tr := range traces {
			c, tr := c, tr
			t.Run(c.name+"/"+tr.Name, func(t *testing.T) {
				t.Parallel()
				lead := New(c.cfg)
				sib := lead.Sibling().(*Predictor)
				oracle := newFullHistory(c.cfg)
				var lc, sc Ctx
				for n, b := range tr.Branches {
					lp := lead.Predict(b.PC, &lc)
					sp := sib.Predict(b.PC, &sc)
					bim, idx, tags := oracle.predict(b.PC)
					if lc.BimIdx != bim || sc.BimIdx != bim {
						t.Fatalf("branch %d: bimodal index leader %d sibling %d, want %d", n, lc.BimIdx, sc.BimIdx, bim)
					}
					for i := range idx {
						if lc.Index(i) != idx[i] || lc.Tag(i) != tags[i] {
							t.Fatalf("branch %d table %d: leader index/tag %d/%#x, full history gives %d/%#x",
								n, i+1, lc.Index(i), lc.Tag(i), idx[i], tags[i])
						}
						if sc.Index(i) != lc.Index(i) || sc.Tag(i) != lc.Tag(i) {
							t.Fatalf("branch %d table %d: sibling index/tag %d/%#x, leader's %d/%#x",
								n, i+1, sc.Index(i), sc.Tag(i), lc.Index(i), lc.Tag(i))
						}
					}
					lead.OnResolve(b.PC, b.Taken, lp != b.Taken, &lc)
					sib.OnResolve(b.PC, b.Taken, sp != b.Taken, &sc)
					oracle.g.Push(b.Taken)
					lead.Retire(b.PC, b.Taken, &lc, true)
					sib.Retire(b.PC, b.Taken, &sc, false)
				}
			})
		}
	}
}

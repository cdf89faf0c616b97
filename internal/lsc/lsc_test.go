package lsc

import (
	"math/rand"
	"testing"

	"repro/internal/histories"
	"repro/internal/rng"
)

// TestCapturesLocalOnlyCorrelation is the Section 6 behaviour: a branch
// whose outcome follows its own local pattern while the global context is
// noise. The LSC must learn it from the local history even when the main
// prediction is unreliable.
func TestCapturesLocalOnlyCorrelation(t *testing.T) {
	c := New(Config{}, nil)
	r := rng.NewXoshiro(1)
	pattern := []bool{true, true, false, true, false, false, true, false}
	pc := uint64(0x4000)
	const rounds = 6000
	lateWrong, lateTotal := 0, 0
	for i := 0; i < rounds; i++ {
		taken := pattern[i%len(pattern)]
		mainPred := r.Bool(0.5) // main predictor defeated by global noise
		var ctx Ctx
		final := c.Predict(pc, mainPred, 1, &ctx)
		if i > rounds/2 {
			lateTotal++
			if final != taken {
				lateWrong++
			}
		}
		c.OnResolve(taken, &ctx)
		c.Retire(taken, &ctx, true)
	}
	rate := float64(lateWrong) / float64(lateTotal)
	if rate > 0.10 {
		t.Fatalf("local pattern late misprediction rate = %.3f, want < 0.10", rate)
	}
}

func TestSpeculativeLocalHistoryInflight(t *testing.T) {
	// Several in-flight instances of the same branch: the SLHM must supply
	// the speculative history so each sees a different (advanced) history.
	c := New(Config{}, nil)
	pc := uint64(0x100)
	var ctxs [4]Ctx
	histories := make([]uint32, 0, 4)
	for i := 0; i < 4; i++ {
		c.Predict(pc, true, 1, &ctxs[i])
		histories = append(histories, ctxs[i].SpecHist)
		c.OnResolve(i%2 == 0, &ctxs[i])
	}
	for i := 1; i < len(histories); i++ {
		if histories[i] == histories[i-1] {
			t.Fatalf("speculative history did not advance in flight: %v", histories)
		}
	}
	for i := 0; i < 4; i++ {
		c.Retire(i%2 == 0, &ctxs[i], true)
	}
	// After retiring all, the architectural history must equal the final
	// speculative one.
	var ctx Ctx
	c.Predict(pc, true, 1, &ctx)
	want := histories[3]<<1 | 0 // one more shift from the i=3 outcome (false)
	want &= (1 << c.width) - 1
	if ctx.SpecHist != want {
		t.Fatalf("architectural history %#b, want %#b", ctx.SpecHist, want)
	}
}

func TestStorageBudgetAbout30Kbits(t *testing.T) {
	// Section 6.1: "using 5 tables featuring 1K 6-bit entries ... and a
	// small 32-entry direct-mapped local history table" — "A 30 Kbits LSC".
	c := New(Config{}, nil)
	bits := c.StorageBits()
	if bits < 30*1024 || bits > 32*1024 {
		t.Fatalf("StorageBits = %d, want ~30-32 Kbits", bits)
	}
}

func TestFoldLocal(t *testing.T) {
	// Folding must be width-bounded and XOR-consistent.
	if foldLocal(0, 10) != 0 {
		t.Fatal("fold of 0 must be 0")
	}
	v := foldLocal(0xffffffff, 8)
	if v > 0xff {
		t.Fatalf("fold exceeded width: %#x", v)
	}
	// 0x3FF folded to width 10 is itself.
	if foldLocal(0x3ff, 10) != 0x3ff {
		t.Fatal("identity fold failed")
	}
	// Two chunks XOR together: 0xfff width 10 = 0x3ff ^ 0x3.
	if foldLocal(0xfff, 10) != (0x3ff ^ 0x3) {
		t.Fatalf("fold = %#x", foldLocal(0xfff, 10))
	}
}

func TestInterleavedVariantLearns(t *testing.T) {
	c := New(Config{Interleaved: true}, nil)
	pattern := []bool{true, false, true, true, false}
	pc := uint64(0x200)
	const rounds = 8000
	lateWrong, lateTotal := 0, 0
	for i := 0; i < rounds; i++ {
		taken := pattern[i%len(pattern)]
		var ctx Ctx
		final := c.Predict(pc, false, -1, &ctx)
		if i > 3*rounds/4 {
			lateTotal++
			if final != taken {
				lateWrong++
			}
		}
		c.OnResolve(taken, &ctx)
		c.Retire(taken, &ctx, true)
	}
	rate := float64(lateWrong) / float64(lateTotal)
	// Interleaving slows training (up to 4 entries per branch) but the
	// pattern must still be learned.
	if rate > 0.20 {
		t.Fatalf("interleaved late rate = %.3f", rate)
	}
}

func TestAliasedBranchesShareHistory(t *testing.T) {
	// Two PCs aliasing to the same 32-entry LHT slot share local history —
	// an intentional cost of the tiny table.
	c := New(Config{}, nil)
	pcA := uint64(0x1000)
	pcB := pcA
	for pc := pcA + 16; pc < pcA+16*4096; pc += 16 {
		if c.lht.IndexOf(pc) == c.lht.IndexOf(pcA) {
			pcB = pc
			break
		}
	}
	if pcB == pcA {
		t.Fatal("no aliasing PC found")
	}
	var ctx Ctx
	c.Predict(pcA, true, 1, &ctx)
	c.OnResolve(true, &ctx)
	c.Retire(true, &ctx, true)
	var ctxB Ctx
	c.Predict(pcB, true, 1, &ctxB)
	if ctxB.SpecHist != 1 {
		t.Fatalf("aliased branch should see shared history, got %#b", ctxB.SpecHist)
	}
}

// TestSLHMMatchesNaiveFIFO drives the SLHM ring through OnResolve
// pushes, Retire pops and lookups, against a naive slice FIFO in age
// order: at every capacity from 1 to 70, once within capacity and once
// overflowing, where a push into a full ring drops the oldest history
// and owes the pop of the retire whose history was dropped.
func TestSLHMMatchesNaiveFIFO(t *testing.T) {
	type inst struct {
		idx  int
		hist uint32
	}
	rng := rand.New(rand.NewSource(0x51e4))
	for capacity := 1; capacity <= 70; capacity++ {
		for _, overflow := range []bool{false, true} {
			c := New(Config{SLHMCap: capacity}, nil)
			var model []inst
			owed := 0
			pop := func() {
				c.Retire(false, &Ctx{PushedSLHM: true}, false)
				switch {
				case owed > 0:
					owed--
				case len(model) > 0:
					model = model[1:]
				}
			}
			pushBias := 45
			if overflow {
				pushBias = 70
			}
			for op := 0; op < 600; op++ {
				idx := rng.Intn(6)
				switch r := rng.Intn(100); {
				case r < pushBias:
					if !overflow && len(model) == capacity {
						pop()
					}
					taken := rng.Intn(2) == 0
					ctx := Ctx{LhtIdx: idx, SpecHist: rng.Uint32()}
					c.OnResolve(taken, &ctx)
					if len(model) == capacity {
						model = model[1:]
						owed++
					}
					model = append(model, inst{idx, histories.Shift(ctx.SpecHist, taken, c.width)})
				case r < pushBias+25:
					// Within capacity, retires pop only what was pushed.
					if overflow || len(model) > 0 {
						pop()
					}
				default:
					var want inst
					found := false
					for i := len(model) - 1; i >= 0; i-- {
						if model[i].idx == idx {
							want, found = model[i], true
							break
						}
					}
					if hist, ok := c.slhmLookup(idx); ok != found || hist != want.hist {
						t.Fatalf("capacity %d overflow=%v op %d: slhmLookup(%d) = %#x,%v, oracle %#x,%v",
							capacity, overflow, op, idx, hist, ok, want.hist, found)
					}
				}
			}
		}
	}
}

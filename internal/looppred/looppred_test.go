package looppred

import (
	"math/rand"
	"testing"
)

// driveLoop runs `rounds` full executions of a constant-trip loop through
// the predictor with immediate retire, returning mispredictions over the
// last half (the predictor's own prediction counted only when Valid).
func driveLoop(p *Predictor, pc uint64, trip, rounds int) (validPreds, wrongValid int) {
	for r := 0; r < rounds; r++ {
		for i := 0; i < trip; i++ {
			taken := i < trip-1 // exit on the last iteration
			var ctx Ctx
			p.Predict(pc, &ctx)
			if ctx.Valid && r >= rounds/2 {
				validPreds++
				if ctx.Pred != taken {
					wrongValid++
				}
			}
			p.OnResolve(pc, taken, &ctx)
			p.Retire(pc, taken, &ctx, false)
			if !ctx.Hit {
				p.Allocate(pc, taken)
			}
		}
	}
	return
}

func TestLearnsConstantTripLoop(t *testing.T) {
	p := New(Config{}, nil)
	validPreds, wrongValid := driveLoop(p, 0x4000, 23, 40)
	if validPreds == 0 {
		t.Fatal("loop predictor never reached high confidence")
	}
	if wrongValid != 0 {
		t.Fatalf("%d wrong confident predictions on a constant-trip loop", wrongValid)
	}
}

func TestConfidenceRequiresSevenExecutions(t *testing.T) {
	p := New(Config{}, nil)
	pc := uint64(0x100)
	trip := 10
	sawValidAt := -1
	for r := 0; r < 12 && sawValidAt < 0; r++ {
		for i := 0; i < trip; i++ {
			taken := i < trip-1
			var ctx Ctx
			p.Predict(pc, &ctx)
			if ctx.Valid && sawValidAt < 0 {
				sawValidAt = r
			}
			p.OnResolve(pc, taken, &ctx)
			p.Retire(pc, taken, &ctx, false)
			if !ctx.Hit {
				p.Allocate(pc, taken)
			}
		}
	}
	// Allocation happens on the first exit misprediction, the trip count is
	// learned on the next full execution, then 7 confirmations are needed.
	if sawValidAt >= 0 && sawValidAt < 7 {
		t.Fatalf("confident after only %d executions, want >= 7", sawValidAt)
	}
	if sawValidAt < 0 {
		t.Fatal("never became confident")
	}
}

func TestIrregularTripResetsConfidence(t *testing.T) {
	p := New(Config{}, nil)
	pc := uint64(0x200)
	// Train on trip 8, then switch to varying trips.
	driveLoop(p, pc, 8, 20)
	trips := []int{5, 9, 13, 6, 11, 7}
	sawValid := false
	for pass := 0; pass < 4; pass++ {
		for _, trip := range trips {
			for i := 0; i < trip; i++ {
				taken := i < trip-1
				var ctx Ctx
				p.Predict(pc, &ctx)
				if pass > 1 && ctx.Valid {
					sawValid = true
				}
				p.OnResolve(pc, taken, &ctx)
				p.Retire(pc, taken, &ctx, false)
			}
		}
	}
	if sawValid {
		t.Fatal("stayed confident on an irregular loop")
	}
}

func TestSlimTracksInflightIterations(t *testing.T) {
	// With several loop iterations in flight (no retire between them), the
	// speculative iteration count must advance via the SLIM.
	p := New(Config{}, nil)
	pc := uint64(0x300)
	trip := 5
	// Train to confidence with immediate retire.
	driveLoop(p, pc, trip, 30)
	// Now predict a whole loop execution without retiring anything.
	ctxs := make([]Ctx, trip)
	wrong := 0
	for i := 0; i < trip; i++ {
		taken := i < trip-1
		p.Predict(pc, &ctxs[i])
		if !ctxs[i].Valid || ctxs[i].Pred != taken {
			wrong++
		}
		p.OnResolve(pc, taken, &ctxs[i])
	}
	for i := 0; i < trip; i++ {
		taken := i < trip-1
		p.Retire(pc, taken, &ctxs[i], false)
	}
	if wrong != 0 {
		t.Fatalf("%d wrong/unconfident predictions with in-flight iterations", wrong)
	}
}

func TestAllocationRespectsAge(t *testing.T) {
	p := New(Config{Entries: 8, Ways: 4}, nil)
	// Fill the structure with confident entries.
	pcs := []uint64{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80}
	for _, pc := range pcs {
		p.Allocate(pc, true)
	}
	// A new allocation must not immediately evict a fresh (age=max) entry.
	before := countValid(p)
	p.Allocate(0x999, true)
	after := countValid(p)
	if after > before+1 {
		t.Fatalf("valid entries jumped from %d to %d", before, after)
	}
}

func countValid(p *Predictor) int {
	n := 0
	for _, set := range p.sets {
		for _, e := range set {
			if e.valid {
				n++
			}
		}
	}
	return n
}

func TestStorageBits(t *testing.T) {
	// Paper: 64 entries x 37 bits.
	p := New(Config{}, nil)
	if got := p.StorageBits(); got != 64*37 {
		t.Fatalf("StorageBits = %d, want %d", got, 64*37)
	}
}

func TestNoHitNoState(t *testing.T) {
	p := New(Config{}, nil)
	var ctx Ctx
	p.Predict(0x123, &ctx)
	if ctx.Hit || ctx.Valid {
		t.Fatal("empty predictor must not hit")
	}
	// Retire of a non-hit context must be a no-op and not crash.
	p.OnResolve(0x123, true, &ctx)
	p.Retire(0x123, true, &ctx, false)
}

func TestLongTripBeyondLocalHistory(t *testing.T) {
	// Loops with trip counts far beyond any local history length are the
	// loop predictor's unique value; verify a 200-iteration loop works.
	p := New(Config{}, nil)
	validPreds, wrongValid := driveLoop(p, 0x5000, 200, 20)
	if validPreds == 0 || wrongValid > 0 {
		t.Fatalf("trip-200 loop: valid=%d wrong=%d", validPreds, wrongValid)
	}
}

// TestSLIMMatchesNaiveFIFO drives the SLIM ring through OnResolve
// pushes, Retire pops and lookups, against a naive slice FIFO in age
// order: at every capacity from 1 to 70, once within capacity and once
// overflowing, where a push into a full ring drops the oldest instance
// and owes the pop of the retire whose instance was dropped.
func TestSLIMMatchesNaiveFIFO(t *testing.T) {
	type inst struct {
		key  uint32
		iter uint16
	}
	rng := rand.New(rand.NewSource(0x51171))
	for capacity := 1; capacity <= 70; capacity++ {
		for _, overflow := range []bool{false, true} {
			p := New(Config{SlimCap: capacity}, nil)
			var model []inst
			owed := 0
			pop := func() {
				p.Retire(0, false, &Ctx{PushedSlim: true}, false)
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
				key := uint32(rng.Intn(6))
				switch r := rng.Intn(100); {
				case r < pushBias:
					if !overflow && len(model) == capacity {
						pop()
					}
					// The zero entry at set 0, way 0 iterates not-taken,
					// so a not-taken outcome pushes SpecIter+1.
					ctx := Ctx{Hit: true, SpecIter: uint16(rng.Intn(500))}
					p.OnResolve(uint64(key)<<2, false, &ctx)
					if len(model) == capacity {
						model = model[1:]
						owed++
					}
					model = append(model, inst{key, ctx.SpecIter + 1})
				case r < pushBias+25:
					// Within capacity, retires pop only what was pushed.
					if overflow || len(model) > 0 {
						pop()
					}
				default:
					var want inst
					found := false
					for i := len(model) - 1; i >= 0; i-- {
						if model[i].key == key {
							want, found = model[i], true
							break
						}
					}
					if iter, ok := p.slimLookup(key); ok != found || iter != want.iter {
						t.Fatalf("capacity %d overflow=%v op %d: slimLookup(%d) = %d,%v, oracle %d,%v",
							capacity, overflow, op, key, iter, ok, want.iter, found)
					}
				}
			}
		}
	}
}

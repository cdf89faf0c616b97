package ium

import (
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
)

func TestLookupRequiresExecution(t *testing.T) {
	b := New(16, 4)
	b.Push(3, 100, 2)
	// Not yet executed: only 1 fetch since push.
	if _, ok := b.Lookup(3, 100); ok {
		t.Fatal("entry should not be usable before execute delay")
	}
	// Push filler branches to age the entry past the execute delay.
	for i := 0; i < 4; i++ {
		b.Push(1, uint32(i), -1)
	}
	ctr, ok := b.Lookup(3, 100)
	if !ok || ctr != 2 {
		t.Fatalf("expected executed hit with ctr=2, got ok=%v ctr=%v", ok, ctr)
	}
}

func TestLookupYoungestFirst(t *testing.T) {
	b := New(16, 0) // immediate execution for this test
	b.Push(2, 55, -3)
	b.Push(2, 55, 1) // younger occurrence of the same entry
	ctr, ok := b.Lookup(2, 55)
	if !ok || ctr != 1 {
		t.Fatal("lookup must return the youngest matching entry")
	}
}

func TestLookupKeyMatching(t *testing.T) {
	b := New(8, 0)
	b.Push(1, 10, 1)
	if _, ok := b.Lookup(1, 11); ok {
		t.Fatal("different index must not match")
	}
	if _, ok := b.Lookup(2, 10); ok {
		t.Fatal("different table must not match")
	}
}

func TestOnMispredictForcesExecution(t *testing.T) {
	b := New(16, 100) // would normally never execute in this test
	b.Push(5, 7, 3)
	if _, ok := b.Lookup(5, 7); ok {
		t.Fatal("should not be executed yet")
	}
	b.OnMispredict()
	if _, ok := b.Lookup(5, 7); !ok {
		t.Fatal("drain must mark entries executed")
	}
}

func TestPopOldest(t *testing.T) {
	b := New(8, 0)
	b.Push(1, 1, 1)
	b.Push(1, 2, -1)
	b.PopOldest()
	if b.Len() != 1 {
		t.Fatalf("len = %d, want 1", b.Len())
	}
	if _, ok := b.Lookup(1, 1); ok {
		t.Fatal("popped entry must not match")
	}
	if _, ok := b.Lookup(1, 2); !ok {
		t.Fatal("remaining entry must match")
	}
	b.PopOldest()
	b.PopOldest() // extra pop on empty buffer must be safe
	if b.Len() != 0 {
		t.Fatal("buffer should be empty")
	}
}

func TestOverflowDropsOldest(t *testing.T) {
	b := New(2, 0)
	b.Push(1, 1, 1)
	b.Push(1, 2, 1)
	b.Push(1, 3, 1) // evicts entry (1,1)
	if b.Len() != 2 {
		t.Fatalf("len = %d, want 2", b.Len())
	}
	if _, ok := b.Lookup(1, 1); ok {
		t.Fatal("evicted entry must not match")
	}
	if _, ok := b.Lookup(1, 3); !ok {
		t.Fatal("new entry must match")
	}
}

func TestHitRate(t *testing.T) {
	b := New(8, 0)
	b.Push(1, 1, 1)
	b.Lookup(1, 1) // hit
	b.Lookup(1, 9) // miss
	if b.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", b.HitRate())
	}
}

func TestWraparound(t *testing.T) {
	b := New(4, 0)
	for i := 0; i < 100; i++ {
		b.Push(1, uint32(i), int32(i%5)-2)
		if i >= 2 && i%3 == 0 {
			b.PopOldest()
		}
	}
	if b.Len() < 1 || b.Len() > 4 {
		t.Fatalf("len = %d out of bounds", b.Len())
	}
}

// TestCounterMimicking verifies the defining property: the IUM tracks the
// counter value an immediate update would produce, so one deviation does
// not flip a saturated counter but does flip a weak one.
func TestCounterMimicking(t *testing.T) {
	// Saturated counter at +3 (3-bit): one not-taken outcome -> +2, sign
	// unchanged: the override still predicts taken.
	c := NextCtr(3, false, 3)
	if c != 2 || c < 0 {
		t.Fatalf("saturated counter after one deviation = %d, want 2", c)
	}
	// Weak counter at 0: one not-taken outcome flips the sign.
	c = NextCtr(0, false, 3)
	if c != -1 {
		t.Fatalf("weak counter after deviation = %d, want -1", c)
	}
	// Chains accumulate: two more not-taken outcomes keep descending.
	c = NextCtr(NextCtr(c, false, 3), false, 3)
	if c != -3 {
		t.Fatalf("chained counter = %d, want -3", c)
	}
	// Saturation floor.
	for i := 0; i < 10; i++ {
		c = NextCtr(c, false, 3)
	}
	if c != -4 {
		t.Fatalf("floor = %d, want -4", c)
	}
}

func TestLookupAny(t *testing.T) {
	b := New(8, 50)
	b.Push(2, 9, 1)
	if _, ok := b.Lookup(2, 9); ok {
		t.Fatal("Lookup must respect execution gating")
	}
	if ctr, ok := b.LookupAny(2, 9); !ok || ctr != 1 {
		t.Fatal("LookupAny must ignore execution gating")
	}
}

// naiveEntry is one record of the naive oracle below.
type naiveEntry struct {
	table  int
	index  uint32
	ctr    int32
	seq    uint64
	forced bool
}

// naiveIUM is an obviously-correct model of the buffer: a slice in age
// order, oldest first. A push into a full buffer drops the oldest entry
// and owes one pop — the retire of the branch whose entry was dropped —
// and a pop with nothing to pop does nothing.
type naiveIUM struct {
	cap, owed int
	delay     uint64
	seq       uint64
	entries   []naiveEntry
}

func (m *naiveIUM) push(table int, index uint32, ctr int32) {
	if len(m.entries) == m.cap {
		m.entries = m.entries[1:]
		m.owed++
	}
	m.entries = append(m.entries, naiveEntry{table, index, ctr, m.seq, false})
	m.seq++
}

func (m *naiveIUM) pop() {
	switch {
	case m.owed > 0:
		m.owed--
	case len(m.entries) > 0:
		m.entries = m.entries[1:]
	}
}

func (m *naiveIUM) lookup(table int, index uint32, any bool) (int32, bool) {
	for i := len(m.entries) - 1; i >= 0; i-- {
		e := m.entries[i]
		if e.table == table && e.index == index && (any || e.forced || m.seq >= e.seq+m.delay) {
			return e.ctr, true
		}
	}
	return 0, false
}

// TestBufferMatchesNaiveFIFO drives the buffer and the naive model with
// the same random Push/Lookup/OnMispredict/PopOldest sequences, at every
// capacity from 1 to 70 (powers of two and not), once keeping the
// buffer within capacity and once overflowing it, and requires identical
// answers throughout.
func TestBufferMatchesNaiveFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1f1f0))
	for capacity := 1; capacity <= 70; capacity++ {
		for _, overflow := range []bool{false, true} {
			delay := rng.Intn(4)
			b := New(capacity, delay)
			m := &naiveIUM{cap: capacity, delay: uint64(delay)}
			pushBias := 45
			if overflow {
				pushBias = 70
			}
			for op := 0; op < 600; op++ {
				table, index := rng.Intn(3), uint32(rng.Intn(6))
				switch r := rng.Intn(100); {
				case r < pushBias:
					if !overflow && b.Len() == capacity {
						b.PopOldest()
						m.pop()
					}
					ctr := int32(rng.Intn(8) - 4)
					b.Push(table, index, ctr)
					m.push(table, index, ctr)
				case r < pushBias+20:
					// Within capacity, retires pop only what was pushed.
					if overflow || b.Len() > 0 {
						b.PopOldest()
						m.pop()
					}
				case r < pushBias+23:
					b.OnMispredict()
					for i := range m.entries {
						m.entries[i].forced = true
					}
				default:
					gotCtr, gotOK := b.Lookup(table, index)
					wantCtr, wantOK := m.lookup(table, index, false)
					anyCtr, anyOK := b.LookupAny(table, index)
					wantAnyCtr, wantAnyOK := m.lookup(table, index, true)
					if gotCtr != wantCtr || gotOK != wantOK || anyCtr != wantAnyCtr || anyOK != wantAnyOK {
						t.Fatalf("capacity %d overflow=%v op %d: Lookup(%d,%d) = %d,%v LookupAny = %d,%v; oracle %d,%v and %d,%v",
							capacity, overflow, op, table, index, gotCtr, gotOK, anyCtr, anyOK, wantCtr, wantOK, wantAnyCtr, wantAnyOK)
					}
				}
				if b.Len() != len(m.entries) {
					t.Fatalf("capacity %d overflow=%v op %d: Len %d, oracle %d", capacity, overflow, op, b.Len(), len(m.entries))
				}
			}
		}
	}
}

// TestWalkCarriesOwedPops: a snapshot of an overflowed buffer restores
// its owed pops, so the restored buffer retires exactly as the original.
func TestWalkCarriesOwedPops(t *testing.T) {
	b := New(4, 0)
	for i := 0; i < 7; i++ { // three overflows: three owed pops
		b.Push(1, uint32(i), int32(i))
	}
	enc := checkpoint.NewEncoder()
	b.Walk(enc.Walker())
	r := New(4, 0)
	dec := checkpoint.NewDecoder(enc.Blob())
	r.Walk(dec.Walker())
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		b.PopOldest()
		r.PopOldest()
		if b.Len() != r.Len() {
			t.Fatalf("pop %d: restored buffer holds %d entries, original %d", i, r.Len(), b.Len())
		}
		if i == 2 && r.Len() != 4 {
			t.Fatalf("after the three owed pops the buffer holds %d entries, want 4", r.Len())
		}
	}
}

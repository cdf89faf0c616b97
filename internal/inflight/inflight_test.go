package inflight

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/checkpoint"
)

// model is the ring's specification: the records held, oldest first,
// and the pops owed for records an overflow dropped.
type model struct {
	capacity int
	held     []int
	owed     int
}

func (m *model) push(v int) {
	if len(m.held) == m.capacity {
		m.held = m.held[1:]
		m.owed++
	}
	m.held = append(m.held, v)
}

func (m *model) pop() {
	switch {
	case m.owed > 0:
		m.owed--
	case len(m.held) > 0:
		m.held = m.held[1:]
	}
}

// check compares the ring with the model: its length, its records in age
// order with the youngest last, and its owed pops, none of them negative.
func check(t *testing.T, r *Ring[int], m *model, step int) {
	t.Helper()
	if r.n < 0 || r.owed < 0 {
		t.Fatalf("step %d: count %d, owed pops %d: negative", step, r.n, r.owed)
	}
	if r.Len() != len(m.held) || r.owed != m.owed {
		t.Fatalf("step %d: Len %d, owed %d; model holds %d, owes %d", step, r.Len(), r.owed, len(m.held), m.owed)
	}
	old, young := r.Halves()
	if got := slices.Concat(old, young); !slices.Equal(got, m.held) {
		t.Fatalf("step %d: Halves give %v (old %v, young %v), model holds %v", step, got, old, young, m.held)
	}
}

// TestRingMatchesModel drives random Push/Pop sequences, some mostly
// pushing (so the ring overflows and owes pops) and some mostly popping
// (so it drains and pops an empty ring), against the model.
func TestRingMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, capacity := range []int{1, 2, 3, 64} {
		for _, pushP := range []float64{0.3, 0.5, 0.7, 0.9} {
			for seq := range 10 {
				r := New[int](capacity)
				m := &model{capacity: capacity}
				for step := range 4 * capacity * 20 {
					if rng.Float64() < pushP {
						v := seq<<20 | step
						r.Push(v)
						m.push(v)
					} else {
						r.Pop()
						m.pop()
					}
					check(t, &r, m, step)
				}
			}
		}
	}
}

// cursors encodes a ring's head, count and owed-pop cursors as
// WalkCursors writes them.
func cursors(head, n, owed int) []byte {
	e := checkpoint.NewEncoder()
	e.Int(head)
	e.Int(n)
	e.Int(owed)
	return e.Blob()
}

// TestWalkCursorsRefusesOutOfRange: decoding refuses a head at or past
// the capacity, a count above it, and negative cursors, and leaves the
// ring as it was; in-range cursors decode to the ring they describe.
func TestWalkCursorsRefusesOutOfRange(t *testing.T) {
	for _, c := range []int{1, 2, 3, 64} {
		for _, tc := range []struct {
			head, n, owed int
			ok            bool
		}{
			{0, 0, 0, true},
			{c - 1, c, 7, true},
			{c, 0, 0, false},
			{c + 5, 1, 0, false},
			{-1, 0, 0, false},
			{0, c + 1, 0, false},
			{0, -1, 0, false},
			{0, 0, -1, false},
		} {
			r := New[int](c)
			d := checkpoint.NewDecoder(cursors(tc.head, tc.n, tc.owed))
			r.WalkCursors(d.Walker(), "test ring cursor")
			if failed := d.Err() != nil; failed == tc.ok {
				t.Fatalf("capacity %d, head %d, count %d, owed %d: decode error %v, want ok=%v", c, tc.head, tc.n, tc.owed, d.Err(), tc.ok)
			}
			want := [3]int{}
			if tc.ok {
				want = [3]int{tc.head, tc.n, tc.owed}
			}
			if got := [3]int{r.head, r.n, r.owed}; got != want {
				t.Fatalf("capacity %d: decoded cursors %v, want %v", c, got, want)
			}
		}
	}
}

// TestWalkCursorsRoundTrip: a ring's cursors, encoded and decoded over a
// copy of its slots, give back the same records and owed pops, and a
// reset walk empties the ring.
func TestWalkCursorsRoundTrip(t *testing.T) {
	r := New[int](3)
	for v := range 5 { // overflows twice: two pops owed
		r.Push(v)
	}
	r.Pop()
	e := checkpoint.NewEncoder()
	r.WalkCursors(e.Walker(), "test ring cursor")
	back := New[int](3)
	copy(back.Slots(), r.Slots())
	d := checkpoint.NewDecoder(e.Blob())
	back.WalkCursors(d.Walker(), "test ring cursor")
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	check(t, &back, &model{capacity: 3, held: []int{2, 3, 4}, owed: 1}, 0)
	back.WalkCursors(checkpoint.Walker{}, "test ring cursor")
	check(t, &back, &model{capacity: 3}, 1)
}

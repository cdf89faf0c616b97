// Package inflight is the bounded FIFO under the predictors' speculative
// in-flight structures — the IUM (Section 5.1), the loop predictor's
// SLIM (Section 5.2) and the LSC's SLHM (Section 6): one record per
// in-flight branch, pushed at execute, popped at retire and searched
// youngest first.
//
// More branches can be in flight than a ring holds (a pipeline window
// above its capacity). A push into a full ring then drops the oldest
// record, and the ring owes one pop: the retire of the branch whose
// record was dropped consumes it, instead of removing a younger
// branch's record. Retires run in push order, so the owed pops are
// always the next ones. A pop with nothing to pop does nothing, so no
// sequence of operations, and no decoded state, drives a ring negative.
//
// The ring keeps its storage length and circular layout, but never
// divides: cursors wrap with a compare, and a search runs over the two
// storage-contiguous halves the records occupy.
package inflight

import (
	"math"

	"repro/internal/checkpoint"
)

// Ring is a bounded FIFO of in-flight records; construct with New.
type Ring[T any] struct {
	slots []T
	head  int // storage index of the oldest record
	n     int // records held
	owed  int // pops owed for records an overflow dropped
}

// New returns an empty ring with room for capacity records (at least
// one).
func New[T any](capacity int) Ring[T] { return Ring[T]{slots: make([]T, max(capacity, 1))} }

// Len returns the number of records held.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v as the youngest record. A full ring first drops its
// oldest record and owes the pop of that record's retire.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.slots) {
		r.drop()
		r.owed++
	}
	tail := r.head + r.n
	if tail >= len(r.slots) {
		tail -= len(r.slots)
	}
	r.slots[tail] = v
	r.n++
}

// Pop retires the oldest record: it pays an owed pop if there is one,
// and otherwise removes the oldest record held, if any.
func (r *Ring[T]) Pop() {
	switch {
	case r.owed > 0:
		r.owed--
	case r.n > 0:
		r.drop()
	}
}

func (r *Ring[T]) drop() {
	r.head++
	if r.head == len(r.slots) {
		r.head = 0
	}
	r.n--
}

// Halves returns the records as two storage-contiguous runs in age
// order: old starts at the oldest record, and young, the part that
// wrapped around to the start of storage, ends at the youngest. A
// youngest-first search walks young backwards, then old backwards.
func (r *Ring[T]) Halves() (old, young []T) {
	end := r.head + r.n
	if end <= len(r.slots) {
		return r.slots[r.head:end], nil
	}
	return r.slots[r.head:], r.slots[:end-len(r.slots)]
}

// Slots returns the ring's storage in storage order, for its owner's
// state walk.
func (r *Ring[T]) Slots() []T { return r.slots }

// WalkCursors visits the head, count and owed-pop cursors, which
// construct as an empty ring; what names them in a decode error. The
// owner walks the slots (Slots) before it.
func (r *Ring[T]) WalkCursors(w checkpoint.Walker, what string) {
	w.IntIn(&r.head, 0, 0, len(r.slots), what)
	w.IntIn(&r.n, 0, 0, len(r.slots)+1, what)
	w.IntIn(&r.owed, 0, 0, math.MaxInt, what)
}

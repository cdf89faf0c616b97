package ium

import "repro/internal/checkpoint"

// Walk visits the buffer's dynamic state: every ring slot (the circular
// layout is kept verbatim), the head/count cursors, the fetch sequence,
// and the hit accounting, all constructing as an empty buffer (zero).
// Capacity and execDelay are construction parameters and stay with the
// configuration.
func (b *Buffer) Walk(w checkpoint.Walker) {
	w.Begin("ium", 1)
	w.Len(len(b.ring), "ium ring capacity")
	r := checkpoint.Records(w, b.ring, 25)
	for i := range r.N {
		e := &b.ring[i]
		r.Int(&e.Table)
		r.U32(&e.Index)
		r.I32(&e.Ctr)
		r.U64(&e.seq)
		r.Bool(&e.forced)
	}
	w.IntIn(&b.head, 0, 0, len(b.ring), "ium head")
	w.IntIn(&b.count, 0, 0, len(b.ring)+1, "ium count")
	w.U64(&b.seq, 0)
	w.U64(&b.Lookups, 0)
	w.U64(&b.Hits, 0)
	w.End()
}

package ium

import "repro/internal/checkpoint"

// Walk visits the buffer's dynamic state: every ring slot (the circular
// layout is kept verbatim), the head/count/owed-pop cursors, the fetch
// sequence, and the hit accounting, all constructing as an empty buffer
// (zero). Capacity and execDelay are construction parameters and stay
// with the configuration. Version 2 added the owed-pop cursor.
func (b *Buffer) Walk(w checkpoint.Walker) {
	w.Begin("ium", 2)
	slots := b.ring.Slots()
	w.Len(len(slots), "ium ring capacity")
	r := checkpoint.Records(w, slots, 25)
	for i := range r.N {
		e := &slots[i]
		r.Int(&e.Table)
		r.U32(&e.Index)
		r.I32(&e.Ctr)
		r.U64(&e.seq)
		r.Bool(&e.forced)
	}
	b.ring.WalkCursors(w, "ium ring cursor")
	w.U64(&b.seq, 0)
	w.U64(&b.Lookups, 0)
	w.U64(&b.Hits, 0)
	w.End()
}

package looppred

import "repro/internal/checkpoint"

// Walk visits the loop table, the in-flight SLIM ring (slots, then
// head, count and owed-pop cursors) and the override accounting, all
// constructing as empty (zero). The shared stats object belongs to the
// owner. Version 2 added the owed-pop cursor.
func (p *Predictor) Walk(w checkpoint.Walker) {
	w.Begin("loop", 2)
	w.Len(len(p.sets), "loop set count")
	w.Len(p.cfg.Ways, "loop associativity")
	for _, set := range p.sets {
		r := checkpoint.Records(w, set, 10)
		for i := range r.N {
			e := &set[i]
			r.U16(&e.tag)
			r.U16(&e.past)
			r.U16(&e.current)
			r.U8(&e.conf)
			r.U8(&e.age)
			r.Bool(&e.dir)
			r.Bool(&e.valid)
		}
	}
	slim := p.slim.Slots()
	w.Len(len(slim), "slim ring capacity")
	r := checkpoint.Records(w, slim, 6)
	for i := range r.N {
		r.U32(&slim[i].key)
		r.U16(&slim[i].iter)
	}
	p.slim.WalkCursors(w, "slim ring cursor")
	w.U64(&p.Overrides, 0)
	w.U64(&p.Useful, 0)
	w.End()
}

// WalkCtx visits a loop-predictor pipeline context. A hit carries the
// set and way of its entry; a miss carries -1 for both.
func (p *Predictor) WalkCtx(w checkpoint.Walker, ctx *Ctx) {
	w.Bool(&ctx.Hit, false)
	lo := -1
	if ctx.Hit {
		lo = 0
	}
	w.IntIn(&ctx.Set, -1, lo, p.nsets, "loop set")
	w.IntIn(&ctx.Way, -1, lo, p.cfg.Ways, "loop way")
	w.Bool(&ctx.Valid, false)
	w.Bool(&ctx.Pred, false)
	w.U16(&ctx.SpecIter, 0)
	w.Bool(&ctx.PushedSlim, false)
}

package neural

import "repro/internal/checkpoint"

// walk visits the weights, the speculative path/direction history rings
// and their head, the threshold state (theta constructs as 2·Hist+14)
// and the accounting.
func (p *Predictor) walk(w checkpoint.Walker) {
	w.Begin("neural", 1)
	w.I8s(p.w, 0)
	w.I8s(p.bias, 0)
	w.U32s(p.path, 0)
	w.Bools(p.dirs, false)
	w.IntIn(&p.head, 0, 0, p.cfg.Hist, "neural history head")
	w.I32(&p.theta, int32(2*p.cfg.Hist+14))
	w.I32(&p.tc, 0)
	p.stats.Walk(w)
	w.End()
}

// Reset implements predictor.Predictor.
func (p *Predictor) Reset() { p.walk(checkpoint.Walker{}) }

// Snapshot implements predictor.Predictor.
func (p *Predictor) Snapshot(enc *checkpoint.Encoder) { p.walk(enc.Walker()) }

// Restore implements predictor.Predictor.
func (p *Predictor) Restore(dec *checkpoint.Decoder) { p.walk(dec.Walker()) }

// WalkCtx implements predictor.Predictor: the bias index and every
// weight cell are range-checked against their arrays.
func (p *Predictor) WalkCtx(w checkpoint.Walker, ctx *Ctx) {
	w.Index(&ctx.BiasIdx, len(p.bias), "neural bias index")
	for j := range ctx.Cells {
		w.Index(&ctx.Cells[j], len(p.w), "neural weight cell")
	}
	w.I8s(ctx.Vals[:], 0)
	w.I8(&ctx.BiasVal, 0)
	w.Bools(ctx.Signs[:], false)
	w.I32(&ctx.Sum, 0)
	w.Bool(&ctx.Pred, false)
}

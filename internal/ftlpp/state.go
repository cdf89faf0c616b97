package ftlpp

import "repro/internal/checkpoint"

// walk visits both GEHL engines, the global and local histories, and the
// per-table folds. The two engines share one stats object, visited once.
func (p *Predictor) walk(w checkpoint.Walker) {
	w.Begin("ftlpp", 1)
	p.geng.Walk(w)
	p.leng.Walk(w)
	p.ghist.Walk(w)
	for i := range p.folded {
		p.folded[i].Walk(w)
	}
	p.lht.Walk(w)
	p.geng.Stats().Walk(w)
	w.End()
}

// Reset implements predictor.Predictor.
func (p *Predictor) Reset() { p.walk(checkpoint.Walker{}) }

// Snapshot implements predictor.Predictor.
func (p *Predictor) Snapshot(enc *checkpoint.Encoder) { p.walk(enc.Walker()) }

// Restore implements predictor.Predictor.
func (p *Predictor) Restore(dec *checkpoint.Decoder) { p.walk(dec.Walker()) }

// WalkCtx implements predictor.Predictor: both sides' table indices are
// range-checked against their engines.
func (p *Predictor) WalkCtx(w checkpoint.Walker, ctx *Ctx) {
	p.geng.WalkReads(w, ctx.GIdx[:], ctx.GCtr[:])
	p.leng.WalkReads(w, ctx.LIdx[:], ctx.LCtr[:])
	w.I32(&ctx.Sum, 0)
	w.Bool(&ctx.Pred, false)
}

package gshare

import "repro/internal/checkpoint"

// walk visits the counter table (constructing weakly not-taken, 1), the
// global history register and the accounting.
func (p *Predictor) walk(w checkpoint.Walker) {
	w.Begin("gshare", 1)
	w.U8s(p.table, 1)
	w.U32(&p.ghr, 0)
	p.stats.Walk(w)
	w.End()
}

// Reset implements predictor.Predictor.
func (p *Predictor) Reset() { p.walk(checkpoint.Walker{}) }

// Snapshot implements predictor.Predictor.
func (p *Predictor) Snapshot(enc *checkpoint.Encoder) { p.walk(enc.Walker()) }

// Restore implements predictor.Predictor.
func (p *Predictor) Restore(dec *checkpoint.Decoder) { p.walk(dec.Walker()) }

// WalkCtx implements predictor.Predictor.
func (p *Predictor) WalkCtx(w checkpoint.Walker, ctx *Ctx) {
	w.Index(&ctx.Index, len(p.table), "gshare index")
	w.I32(&ctx.Ctr, 0)
}

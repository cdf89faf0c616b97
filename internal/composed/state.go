package composed

import "repro/internal/checkpoint"

// walk visits a parent section delegating one child section per
// configured component, in prediction-flow order. Every component shares
// the TAGE core's stats object, which the TAGE walk visits once.
func (p *Predictor) walk(w checkpoint.Walker) {
	w.Begin("composed", 1)
	p.tage.Walk(w)
	if p.loop != nil {
		p.loop.Walk(w)
	}
	if p.sc != nil {
		p.sc.Walk(w)
	}
	if p.lsc != nil {
		p.lsc.Walk(w)
	}
	w.End()
}

// Reset implements predictor.Predictor.
func (p *Predictor) Reset() { p.walk(checkpoint.Walker{}) }

// Snapshot implements predictor.Predictor.
func (p *Predictor) Snapshot(enc *checkpoint.Encoder) { p.walk(enc.Walker()) }

// Restore implements predictor.Predictor.
func (p *Predictor) Restore(dec *checkpoint.Decoder) { p.walk(dec.Walker()) }

// WalkCtx implements predictor.Predictor: each configured component
// walks its own part of the context.
func (p *Predictor) WalkCtx(w checkpoint.Walker, ctx *Ctx) {
	p.tage.WalkCtx(w, &ctx.Tage)
	if p.loop != nil {
		p.loop.WalkCtx(w, &ctx.Loop)
	}
	if p.sc != nil {
		p.sc.WalkCtx(w, &ctx.SC)
	}
	if p.lsc != nil {
		p.lsc.WalkCtx(w, &ctx.LSC)
	}
	w.Bool(&ctx.Final, false)
	w.Bool(&ctx.LoopUsed, false)
}

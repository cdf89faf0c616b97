package gehl

import "repro/internal/checkpoint"

// Walk visits the engine's counter tables (constructing as zero) and
// its adaptive-threshold state (theta constructs as the table count).
// The shared stats object belongs to the owning predictor.
func (e *Engine) Walk(w checkpoint.Walker) {
	w.Len(len(e.tables), "gehl engine table count")
	for _, t := range e.tables {
		w.I8s(t, 0)
	}
	w.I32(&e.theta, int32(len(e.lengths)))
	w.I32(&e.tc, 0)
}

// WalkReads visits the table indices and counters a pipeline context
// captured from this engine: every index is range-checked against the
// table size (slots past the table count are never written, so they
// hold 0).
func (e *Engine) WalkReads(w checkpoint.Walker, idx []uint32, ctrs []int8) {
	for i := range idx {
		w.Index(&idx[i], int(e.mask)+1, "gehl table index")
	}
	w.I8s(ctrs, 0)
}

func (p *Predictor) walk(w checkpoint.Walker) {
	w.Begin("gehl", 1)
	p.eng.Walk(w)
	p.ghist.Walk(w)
	p.folds.Walk(w)
	p.eng.Stats().Walk(w)
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
	p.eng.WalkReads(w, ctx.Indices[:], ctx.Ctrs[:])
	w.I32(&ctx.Sum, 0)
	w.Bool(&ctx.Pred, false)
}

package sc

import "repro/internal/checkpoint"

// Walk visits the corrector's adder tree, global history, folds, revert
// accounting and revert-threshold state (rthresh constructs as twice
// the table count). The shared stats object belongs to the owning
// predictor.
func (c *Corrector) Walk(w checkpoint.Walker) {
	w.Begin("sc", 1)
	c.eng.Walk(w)
	c.ghist.Walk(w)
	c.folds.Walk(w)
	w.U64(&c.Reverts, 0)
	w.U64(&c.UsefulReverts, 0)
	w.I32(&c.rthresh, int32(2*len(c.cfg.Lengths)))
	w.I32(&c.rbenefit, 0)
	w.End()
}

// WalkCtx visits a corrector pipeline context, its table indices
// range-checked against the adder tree.
func (c *Corrector) WalkCtx(w checkpoint.Walker, ctx *Ctx) {
	c.eng.WalkReads(w, ctx.Indices[:], ctx.Ctrs[:])
	w.I32(&ctx.Sum, 0)
	w.Bool(&ctx.SCPred, false)
	w.Bool(&ctx.InPred, false)
	w.Bool(&ctx.Reverted, false)
}

package lsc

import "repro/internal/checkpoint"

// Walk visits the LGEHL tree, local history table, in-flight SLHM ring,
// bank tracker (when interleaved), revert accounting and
// revert-threshold state (rthresh constructs as twice the table count;
// the rest as zero or empty). The shared stats object belongs to the
// owner.
func (c *Corrector) Walk(w checkpoint.Walker) {
	w.Begin("lsc", 1)
	c.eng.Walk(w)
	c.lht.Walk(w)
	w.Len(len(c.slhm), "slhm ring capacity")
	r := checkpoint.Records(w, c.slhm, 12)
	for i := range r.N {
		r.Int(&c.slhm[i].idx)
		r.U32(&c.slhm[i].hist)
	}
	w.IntIn(&c.slhmHead, 0, 0, len(c.slhm), "slhm head")
	w.IntIn(&c.slhmLen, 0, 0, len(c.slhm)+1, "slhm length")
	if c.banks != nil {
		c.banks.Walk(w)
	}
	w.U64(&c.Reverts, 0)
	w.U64(&c.UsefulReverts, 0)
	w.I32(&c.rthresh, int32(2*len(c.cfg.Lengths)))
	w.I32(&c.rbenefit, 0)
	w.End()
}

// WalkCtx visits an LSC pipeline context, its table and local history
// indices range-checked against this corrector.
func (c *Corrector) WalkCtx(w checkpoint.Walker, ctx *Ctx) {
	c.eng.WalkReads(w, ctx.Indices[:], ctx.Ctrs[:])
	w.I32(&ctx.Sum, 0)
	w.Bool(&ctx.SCPred, false)
	w.Bool(&ctx.InPred, false)
	w.Bool(&ctx.Reverted, false)
	w.IntIn(&ctx.LhtIdx, 0, 0, c.lht.Entries(), "lsc local history index")
	w.U32(&ctx.SpecHist, 0)
	w.Bool(&ctx.PushedSLHM, false)
}

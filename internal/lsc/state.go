package lsc

import "repro/internal/checkpoint"

// Walk visits the LGEHL tree, local history table, in-flight SLHM ring
// (slots, then head, count and owed-pop cursors), bank tracker (when
// interleaved), revert accounting and revert-threshold state (rthresh
// constructs as twice the table count; the rest as zero or empty). The
// shared stats object belongs to the owner. Version 2 added the
// owed-pop cursor.
func (c *Corrector) Walk(w checkpoint.Walker) {
	w.Begin("lsc", 2)
	c.eng.Walk(w)
	c.lht.Walk(w)
	slhm := c.slhm.Slots()
	w.Len(len(slhm), "slhm ring capacity")
	r := checkpoint.Records(w, slhm, 12)
	for i := range r.N {
		r.Int(&slhm[i].idx)
		r.U32(&slhm[i].hist)
	}
	c.slhm.WalkCursors(w, "slhm ring cursor")
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

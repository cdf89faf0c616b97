package tage

import "repro/internal/checkpoint"

// rngSalt separates the allocation RNG stream from other users of
// Config.Seed.
const rngSalt = 0x7a6e_0001

// Walk visits the predictor's dynamic state: the contiguous
// tagged-entry store (constructing as zero: no tag, counter 0, u 0),
// the bimodal base, the global history and per-table folds, the
// allocation-policy counters, the RNG stream (constructing as seeded
// from Config.Seed), and — when configured — the bank tracker and IUM,
// then the access accounting. Shape parameters stay with the Config.
// The history, folds and bank tracker belong to the front end, which a
// sibling shares (see Sibling). Composed predictors walk their TAGE
// through this.
func (p *Predictor) Walk(w checkpoint.Walker) {
	w.Begin("tage", 1)
	w.Len(len(p.entries), "tage entry store size")
	// Each entry moves as one little-endian word: ctr | u<<8 | tag<<16.
	r := checkpoint.Records(w, p.entries, 4)
	for i := range r.N {
		e := &p.entries[i]
		v := uint32(uint8(e.ctr)) | uint32(e.u)<<8 | uint32(e.tag)<<16
		if r.Word(&v) {
			e.ctr, e.u, e.tag = int8(v), uint8(v>>8), uint16(v>>16)
		}
	}
	p.bim.Walk(w)
	p.fe.ghist.Walk(w)
	for i := range p.fe.folds {
		p.fe.folds[i].Walk(w)
	}
	w.I32(&p.useAlt, 0)
	w.U32(&p.tick, 0)
	p.rand.Walk(w, p.cfg.Seed^rngSalt)
	if p.fe.banks != nil {
		p.fe.banks.Walk(w)
	}
	if p.ium != nil {
		p.ium.Walk(w)
	}
	p.stats.Walk(w)
	w.End()
}

// Reset implements predictor.Predictor.
func (p *Predictor) Reset() { p.Walk(checkpoint.Walker{}) }

// Snapshot implements predictor.Predictor.
func (p *Predictor) Snapshot(enc *checkpoint.Encoder) { p.Walk(enc.Walker()) }

// Restore implements predictor.Predictor.
func (p *Predictor) Restore(dec *checkpoint.Decoder) { p.Walk(dec.Walker()) }

// WalkCtx implements predictor.Predictor: the bimodal index and every
// tagged table's index are range-checked against their tables, and the
// provider and alternate against the component count.
func (p *Predictor) WalkCtx(w checkpoint.Walker, ctx *Ctx) {
	p.bim.WalkIndex(w, &ctx.BimIdx)
	w.I32(&ctx.BimCtr, 0)
	for i := range ctx.Ent {
		w.U64(&ctx.Ent[i], 0)
		if i < len(p.fe.idxBits) && ctx.Index(i) >= 1<<p.fe.idxBits[i] {
			w.Failf("tage table %d index %d out of range [0,%d)", i+1, ctx.Index(i), 1<<p.fe.idxBits[i])
		}
	}
	w.IntIn(&ctx.Provider, 0, 0, len(p.fe.meta)+1, "tage provider")
	w.IntIn(&ctx.Alt, 0, 0, len(p.fe.meta)+1, "tage alternate")
	w.Bool(&ctx.ProvPred, false)
	w.Bool(&ctx.AltPred, false)
	w.Bool(&ctx.WeakProv, false)
	w.Bool(&ctx.TagePred, false)
	w.Bool(&ctx.FinalPred, false)
	w.Bool(&ctx.IUMUsed, false)
	w.Bool(&ctx.IUMHit, false)
	w.I32(&ctx.IUMCtr, 0)
}

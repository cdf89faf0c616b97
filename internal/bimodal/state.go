package bimodal

import "repro/internal/checkpoint"

// Walk visits the prediction and hysteresis arrays, the table's only
// dynamic state (shape and the shared stats stay with the owner). Every
// counter constructs weakly not-taken, value 1: pred 0, hyst 1.
func (t *Table) Walk(w checkpoint.Walker) {
	w.U8s(t.pred, 0)
	w.U8s(t.hyst, 1)
}

// WalkIndex visits a prediction-array index captured in a pipeline
// context, range-checked against this table.
func (t *Table) WalkIndex(w checkpoint.Walker, pi *uint32) {
	w.Index(pi, len(t.pred), "bimodal index")
}

func (s *Standalone) walk(w checkpoint.Walker) {
	w.Begin("bimodal", 1)
	s.t.Walk(w)
	s.t.stats.Walk(w)
	w.End()
}

// Reset implements predictor.Predictor.
func (s *Standalone) Reset() { s.walk(checkpoint.Walker{}) }

// Snapshot implements predictor.Predictor.
func (s *Standalone) Snapshot(enc *checkpoint.Encoder) { s.walk(enc.Walker()) }

// Restore implements predictor.Predictor.
func (s *Standalone) Restore(dec *checkpoint.Decoder) { s.walk(dec.Walker()) }

// WalkCtx implements predictor.Predictor.
func (s *Standalone) WalkCtx(w checkpoint.Walker, ctx *Ctx) {
	s.t.WalkIndex(w, &ctx.Index)
	w.I32(&ctx.Ctr, 0)
}

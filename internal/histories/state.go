package histories

import "repro/internal/checkpoint"

// Each history structure walks only its mutable run state; shape
// parameters (lengths, widths, masks) belong to the configuration that
// built it, and decoding validates stored sizes against the receiver's
// through the slice visits' length checks. All of it constructs as an
// empty history: zero.

// Walk visits the global history ring: buffer contents, head cursor,
// and total outcomes pushed.
func (g *Global) Walk(w checkpoint.Walker) {
	w.Begin("ghist", 1)
	w.U8s(g.buf, 0)
	w.IntIn(&g.head, 0, 0, len(g.buf), "global history head")
	w.U64(&g.n, 0)
	w.End()
}

// Walk visits a folded register's compressed value.
func (f *Folded) Walk(w checkpoint.Walker) { w.U32(&f.comp, 0) }

// Walk visits all three folds of a table.
func (t *TableFolds) Walk(w checkpoint.Walker) {
	t.Idx.Walk(w)
	t.Tag1.Walk(w)
	t.Tag2.Walk(w)
}

// Walk visits the per-PC local history table.
func (l *Local) Walk(w checkpoint.Walker) { w.U32s(l.entries, 0) }

// Walk visits the packed fold words plus the unpacked value mirror (the
// layout is a pure function of the built fold set).
func (p *PackedFolds) Walk(w checkpoint.Walker) {
	w.U64s(p.words, 0)
	w.U32s(p.vals, 0)
}

package memarray

import "repro/internal/checkpoint"

// Walk visits every access counter; all construct as zero.
func (s *Stats) Walk(w checkpoint.Walker) {
	w.U64(&s.PredictReads, 0)
	w.U64(&s.RetireReads, 0)
	w.U64(&s.EntryWrites, 0)
	w.U64(&s.SilentSkipped, 0)
	w.U64(&s.WriteEvents, 0)
	w.U64(&s.RetiredBranch, 0)
	w.U64(&s.Mispredictions, 0)
}

// Walk visits the two-deep bank exclusion window. Each slot is -1 (no
// access, the construction value) or a valid bank index.
func (t *BankTracker) Walk(w checkpoint.Walker) {
	w.IntIn(&t.prev1, -1, -1, NumBanks, "bank tracker previous bank")
	w.IntIn(&t.prev2, -1, -1, NumBanks, "bank tracker second previous bank")
}

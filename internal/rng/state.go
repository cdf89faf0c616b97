package rng

import "repro/internal/checkpoint"

// Walk visits the generator's full 256-bit state, which constructs as
// the state NewXoshiro(seed) starts from, so a pooled owner restarts
// its deterministic stream without allocating. A decoded all-zero state
// (which would trap xoshiro at zero forever) is refused as corrupt.
func (x *Xoshiro) Walk(w checkpoint.Walker, seed uint64) {
	init := expand(seed)
	for i := range x.s {
		w.U64(&x.s[i], init[i])
	}
	if x.s == [4]uint64{} {
		w.Failf("rng state is all zero (xoshiro fixed point)")
	}
}

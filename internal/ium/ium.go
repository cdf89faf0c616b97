// Package ium implements the Immediate Update Mimicker of Section 5.1: a
// FIFO of in-flight branches recording which predictor entry (table number
// and index) provided each prediction, together with the branch outcome
// once the branch has executed. When a new prediction is served by the
// same table entry as an already-executed but not-yet-retired branch, the
// combined (TAGE + IUM) predictor responds from the IUM instead of the
// stale table entry, recovering most of the mispredictions caused by
// retire-time update of the predictor tables.
//
// Implementation note: the paper's text says the IUM responds with "the
// execution outcome" of the in-flight branch. We mimic the immediate
// update faithfully instead: each in-flight record carries the value the
// provider counter would hold had it been updated at execution, and the
// override is that counter's sign. For weak (learning) entries the two
// formulations coincide — the counter flips after one outcome — while for
// saturated counters outcome-replay would spuriously invert confident
// predictions on noisy branches. The counter formulation is what
// "mimicking the immediate update" computes.
package ium

import (
	"repro/internal/bitutil"
	"repro/internal/inflight"
)

// Entry is one in-flight branch record: the identity of the predictor
// entry that provided the prediction (P/T/A in Figure 4) and the provider
// counter as it would read after an immediate update.
type Entry struct {
	Table  int    // provider component (0 = base predictor)
	Index  uint32 // index within the provider component
	Ctr    int32  // speculative provider counter after this branch executes
	seq    uint64 // fetch sequence number
	forced bool   // marked executed early (pipeline drain)
}

// Buffer is the IUM storage: a circular buffer with one entry per in-flight
// branch, searched associatively from youngest to oldest.
type Buffer struct {
	ring      inflight.Ring[Entry]
	seq       uint64 // fetch sequence counter
	execDelay uint64 // fetch-to-execute distance in branches

	// Lookups/Hits instrument how often the IUM overrides the prediction.
	Lookups uint64
	Hits    uint64
}

// New creates a buffer holding up to capacity in-flight branches with the
// given fetch-to-execute delay (in branches). An entry only becomes usable
// for prediction override once its branch has executed.
func New(capacity int, execDelay int) *Buffer {
	return &Buffer{ring: inflight.New[Entry](capacity), execDelay: uint64(execDelay)}
}

// Push records a fetched branch with the provider-counter value after its
// (eventual) execution-time update. If the buffer is full the oldest entry
// is dropped, and the retire of its branch pops nothing.
func (b *Buffer) Push(table int, index uint32, ctr int32) {
	b.ring.Push(Entry{Table: table, Index: index, Ctr: ctr, seq: b.seq})
	b.seq++
}

// executed reports whether the entry's branch has executed: either enough
// younger branches have been fetched, or a pipeline drain marked it.
func (b *Buffer) executed(e *Entry) bool {
	return e.forced || b.seq >= e.seq+b.execDelay
}

// Lookup searches, youngest first, for an executed in-flight branch whose
// prediction came from the same predictor entry. On a hit it returns the
// speculative counter — the value the table entry would hold under
// immediate update (Figure 4: "Same table, same entry = use the outcome
// instead of TAGE").
func (b *Buffer) Lookup(table int, index uint32) (ctr int32, ok bool) {
	b.Lookups++
	if e := b.youngest(table, index, true); e != nil {
		b.Hits++
		return e.Ctr, true
	}
	return 0, false
}

// LookupAny is like Lookup but also matches entries that have not yet
// executed (used by tests to inspect buffer contents).
func (b *Buffer) LookupAny(table int, index uint32) (ctr int32, ok bool) {
	if e := b.youngest(table, index, false); e != nil {
		return e.Ctr, true
	}
	return 0, false
}

// youngest returns the youngest in-flight entry provided by (table,
// index) — only among executed entries when executedOnly — or nil.
func (b *Buffer) youngest(table int, index uint32, executedOnly bool) *Entry {
	old, young := b.ring.Halves()
	for _, half := range [2][]Entry{young, old} {
		for i := len(half) - 1; i >= 0; i-- {
			e := &half[i]
			if e.Table == table && e.Index == index && (!executedOnly || b.executed(e)) {
				return e
			}
		}
	}
	return nil
}

// OnMispredict models the pipeline drain that follows a misprediction: by
// the time fetch resumes on the corrected path, the in-flight branches
// have executed, so their counters become visible to lookups immediately.
func (b *Buffer) OnMispredict() {
	old, young := b.ring.Halves()
	for i := range old {
		old[i].forced = true
	}
	for i := range young {
		young[i].forced = true
	}
}

// PopOldest removes the oldest in-flight entry (called when the branch
// retires; the predictor tables now hold its update so the IUM record is
// no longer needed). The retire of a branch whose entry an overflow
// dropped removes nothing, and so does a pop of an empty buffer.
func (b *Buffer) PopOldest() { b.ring.Pop() }

// Len returns the number of in-flight entries.
func (b *Buffer) Len() int { return b.ring.Len() }

// HitRate returns the fraction of lookups served by the IUM.
func (b *Buffer) HitRate() float64 {
	if b.Lookups == 0 {
		return 0
	}
	return float64(b.Hits) / float64(b.Lookups)
}

// NextCtr advances a speculative provider counter by one outcome,
// saturating at the given width. Exported so the predictor pushing entries
// applies exactly the update the tables would apply.
func NextCtr(ctr int32, taken bool, bits uint) int32 {
	return bitutil.SatUpdateSigned(ctr, taken, bits)
}

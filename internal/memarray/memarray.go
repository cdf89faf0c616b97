// Package memarray models the hardware memory structure of predictor
// tables: per-access accounting (reads at prediction time, reads at retire
// time, entry writes, silent updates avoided), the EV8-style bank-selection
// algorithm of Section 4.3 used for 4-way interleaved single-ported tables,
// and the bank-conflict scheduler that validates the paper's claim that,
// with prediction given priority, every bank still has two free cycles out
// of three for updates.
package memarray

import (
	"fmt"

	"repro/internal/checkpoint"
)

// Stats accumulates predictor-level access counts. The counting conventions
// match Section 4 of the paper:
//
//   - PredictReads counts one access event per prediction (all tables of a
//     predictor are read in parallel; that is one access to the predictor).
//   - RetireReads counts one access event per retire-time re-read.
//   - EntryWrites counts effective (non-silent) entry writes, summed over
//     all tables — the quantity reported as "effective writes per
//     misprediction" in Section 4.1.1.
//   - SilentSkipped counts writes elided because the new value equalled the
//     stored value.
//
// The short JSON keys keep the counters compact in every result-store
// cell record that carries them.
type Stats struct {
	PredictReads  uint64 `json:"pr,omitempty"`
	RetireReads   uint64 `json:"rr,omitempty"`
	EntryWrites   uint64 `json:"ew,omitempty"`
	SilentSkipped uint64 `json:"ss,omitempty"`
	// WriteEvents counts retired branches whose update effectively wrote
	// at least one entry — the predictor-level write count the paper
	// reports (a fully silent update generates no write access at all).
	WriteEvents    uint64 `json:"we,omitempty"`
	RetiredBranch  uint64 `json:"rb,omitempty"`
	Mispredictions uint64 `json:"mp,omitempty"`
}

// RecordWrite accounts one entry-write attempt; effective indicates the
// value actually changed.
func (s *Stats) RecordWrite(effective bool) {
	var e uint64
	if effective {
		e = 1
	}
	s.EntryWrites += e
	s.SilentSkipped += 1 - e
}

// WritesPerMisprediction returns effective predictor write events per
// misprediction (Section 4.1.1's first metric).
func (s *Stats) WritesPerMisprediction() float64 {
	if s.Mispredictions == 0 {
		return 0
	}
	return float64(s.WriteEvents) / float64(s.Mispredictions)
}

// WritesPer100Branches returns effective write events per 100 retired
// branches (Section 4.1.1's second metric).
func (s *Stats) WritesPer100Branches() float64 {
	if s.RetiredBranch == 0 {
		return 0
	}
	return 100 * float64(s.WriteEvents) / float64(s.RetiredBranch)
}

// AccessesPerBranch returns the average number of predictor accesses per
// retired branch: prediction reads + retire reads + write events, the
// "1.13 accesses" quantity of Section 4.2.
func (s *Stats) AccessesPerBranch() float64 {
	if s.RetiredBranch == 0 {
		return 0
	}
	return float64(s.PredictReads+s.RetireReads+s.WriteEvents) / float64(s.RetiredBranch)
}

// SilentFraction returns the fraction of retired branches whose update was
// entirely silent (no write access needed) — "more than 90% in average"
// per the paper's conclusion.
func (s *Stats) SilentFraction() float64 {
	if s.RetiredBranch == 0 {
		return 0
	}
	return 1 - float64(s.WriteEvents)/float64(s.RetiredBranch)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.PredictReads += other.PredictReads
	s.RetireReads += other.RetireReads
	s.EntryWrites += other.EntryWrites
	s.SilentSkipped += other.SilentSkipped
	s.WriteEvents += other.WriteEvents
	s.RetiredBranch += other.RetiredBranch
	s.Mispredictions += other.Mispredictions
}

// NumBanks is the interleaving factor used throughout (the paper's
// proposal is 4-way interleaving).
const NumBanks = 4

// BankTracker implements the bank-selection algorithm of Section 4.3:
// the bank accessed by a prediction must differ from the banks accessed by
// the two previous predictions.
//
//	b(Z) = Z & 3; while (b(Z)==b(X) || b(Z)==b(Y)) b(Z) = (b(Z)+1) & 3
//
// With 4 banks and 2 exclusions the loop always terminates, and for every
// bank every 3-cycle window has at least 2 cycles free of predictions.
type BankTracker struct {
	prev1, prev2 int // banks of the two previous predictions (-1 = none)
}

// NewBankTracker returns a tracker with no prior predictions.
func NewBankTracker() *BankTracker {
	t := &BankTracker{}
	t.Walk(checkpoint.Fresh())
	return t
}

// Select returns the bank to use for predicting the branch at pc and
// records it as the most recent access.
func (t *BankTracker) Select(pc uint64) int {
	// Natural bank from a mix of low PC bits (the paper's Z & 3; mixing
	// keeps the spread uniform for any instruction alignment).
	b := int(((pc >> 2) ^ (pc >> 4)) & (NumBanks - 1))
	for b == t.prev1 || b == t.prev2 {
		b = (b + 1) & (NumBanks - 1)
	}
	t.prev2 = t.prev1
	t.prev1 = b
	return b
}

// SkipUnconditional records a cycle with no predictor access (the paper's
// b(Z) = -1 case for unconditional branches).
func (t *BankTracker) SkipUnconditional() {
	t.prev2 = t.prev1
	t.prev1 = -1
}

// ConflictScheduler models the per-bank access scheduling of Section 4.3
// for one predictor table: predictions have priority, writes at retire have
// priority over reads at retire, and deferred retire operations wait for a
// free cycle. The paper's claim — retire reads delayed at most 1 cycle and
// updates at most 2 cycles — is validated by tests against this model.
type ConflictScheduler struct {
	// pending retire operations per bank, in FIFO order
	pending [NumBanks][]pendingOp

	// statistics
	MaxReadDelay  int
	MaxWriteDelay int
	TotalOps      uint64
	DelayedOps    uint64
}

type pendingOp struct {
	isWrite bool
	issued  int64 // cycle the op became ready
}

// Tick advances one cycle. predictBank is the bank consumed by this cycle's
// prediction (-1 if none). newOps are retire-time operations that become
// ready this cycle. It drains at most one pending op per non-conflicting
// bank, modelling single-ported banks.
func (c *ConflictScheduler) Tick(cycle int64, predictBank int, newOps []RetireOp) {
	for _, op := range newOps {
		if op.Bank < 0 || op.Bank >= NumBanks {
			panic(fmt.Sprintf("memarray: bad bank %d", op.Bank))
		}
		c.pending[op.Bank] = append(c.pending[op.Bank], pendingOp{isWrite: op.IsWrite, issued: cycle})
		c.TotalOps++
	}
	for b := 0; b < NumBanks; b++ {
		if b == predictBank {
			continue // prediction has priority; bank busy this cycle
		}
		if len(c.pending[b]) == 0 {
			continue
		}
		// Writes have priority over reads at retire time.
		sel := 0
		if !c.pending[b][0].isWrite {
			for i, op := range c.pending[b] {
				if op.isWrite {
					sel = i
					break
				}
			}
		}
		op := c.pending[b][sel]
		c.pending[b] = append(c.pending[b][:sel], c.pending[b][sel+1:]...)
		delay := int(cycle - op.issued)
		if delay > 0 {
			c.DelayedOps++
		}
		if op.isWrite {
			if delay > c.MaxWriteDelay {
				c.MaxWriteDelay = delay
			}
		} else if delay > c.MaxReadDelay {
			c.MaxReadDelay = delay
		}
	}
}

// PendingCount returns the number of queued retire operations.
func (c *ConflictScheduler) PendingCount() int {
	n := 0
	for b := range c.pending {
		n += len(c.pending[b])
	}
	return n
}

// RetireOp is a retire-time predictor table operation for the scheduler.
type RetireOp struct {
	Bank    int
	IsWrite bool
}

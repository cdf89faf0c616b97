package sim

import (
	"repro/internal/checkpoint"
	"repro/internal/predictor"
)

// Checkpoint is a mid-trace (or end-of-trace) snapshot of one
// simulation: the predictor's full dynamic state plus the simulator's
// own in-flight window and counters, taken at a consistent point
// between decode batches. At records how many branches had been
// simulated when the blob was taken; a Runner resuming from it skips
// exactly that prefix of the trace.
type Checkpoint struct {
	At   uint64
	Blob []byte
}

// simSectionVersion is the layout of the "sim" section. Version 2 walks
// each in-flight context through the predictor's WalkCtx (version 1
// carried them as one opaque, unvalidated blob); a version 1 blob is
// refused, so an old warm cache cold-starts once.
const simSectionVersion = 2

// simState carries the pass's counters and its lane's across the
// snapshot/restore boundary, so a blob that fails to decode leaves the
// lane untouched.
type simState struct {
	seq          uint64
	branches     uint64
	microOps     uint64
	mispreds     uint64
	penaltySum   float64
	retireReads  uint64
	writeEvents  uint64
	retiredCount uint64
	count        int
}

// walkSim visits the simulator section of one lane: the pipeline
// configuration (an echo, which decoding compares against this run's),
// the counters, and the in-flight window in age order from the lane's
// head — each entry's retire time (absolute: seq continues across a
// resume, so no rebasing), branch and the context the predictor walks.
func walkSim[C any](w checkpoint.Walker, ln *lane[C], opt Options, st *simState) {
	w.Begin("sim", simSectionVersion)
	scenario, ckWindow, ckDelay, ckPenalty := uint8(ln.scenario), ln.window, opt.ExecDelay, opt.PenaltyBase
	w.U8(&scenario, 0)
	w.Int(&ckWindow, 0)
	w.Int(&ckDelay, 0)
	w.F64(&ckPenalty, 0)
	if predictor.Scenario(scenario) != ln.scenario || ckWindow != ln.window || ckDelay != opt.ExecDelay || ckPenalty != opt.PenaltyBase {
		w.Failf("sim section taken under scenario=%s window=%d execdelay=%d penalty=%g, this run uses scenario=%s window=%d execdelay=%d penalty=%g",
			predictor.Scenario(scenario).Letter(), ckWindow, ckDelay, ckPenalty,
			ln.scenario.Letter(), ln.window, opt.ExecDelay, opt.PenaltyBase)
	}
	w.U64(&st.seq, 0)
	w.U64(&st.branches, 0)
	w.U64(&st.microOps, 0)
	w.U64(&st.mispreds, 0)
	w.F64(&st.penaltySum, 0)
	w.U64(&st.retireReads, 0)
	w.U64(&st.writeEvents, 0)
	w.U64(&st.retiredCount, 0)
	// The window holds at most window+1 branches between batches.
	w.IntIn(&st.count, 0, 0, min(ln.window+2, len(ln.ring)), "sim in-flight branch count")
	for i := 0; i < st.count; i++ {
		slot := (ln.head + i) & ln.mask
		e := &ln.ring[slot]
		w.U64(&ln.retireAt[slot], 0)
		w.U64(&e.pc, 0)
		w.Bool(&e.taken, false)
		w.Bool(&e.mispred, false)
		ln.p.WalkCtx(w, &e.ctx)
	}
	w.End()
}

// state returns the lane's counters, with the pass's, as a simState.
func (ln *lane[C]) state(seq, branches, microOps uint64) simState {
	return simState{
		seq: seq, branches: branches, microOps: microOps,
		mispreds: ln.mispreds, penaltySum: ln.penaltySum,
		retireReads: ln.retireReads, writeEvents: ln.writeEvents,
		retiredCount: ln.retiredCount, count: ln.count,
	}
}

// restore sets the lane's counters from a decoded simState, whose
// in-flight window decoding left at ring slot 0.
func (ln *lane[C]) restore(st simState) {
	ln.mispreds, ln.penaltySum = st.mispreds, st.penaltySum
	ln.retireReads, ln.writeEvents, ln.retiredCount = st.retireReads, st.writeEvents, st.retiredCount
	ln.head, ln.tail, ln.count = 0, st.count&ln.mask, st.count
}

// encodeCheckpoint serializes the simulator section of lane ln, with
// the counters st carries, followed by the predictor's own sections
// into the Runner's encoder; the blob is valid until the next
// checkpoint.
func (rn *Runner[C]) encodeCheckpoint(ln *lane[C], opt Options, st simState) []byte {
	rn.enc.Reset()
	walkSim(rn.enc.Walker(), ln, opt, &st)
	ln.p.Snapshot(&rn.enc)
	return rn.enc.Blob()
}

// decodeCheckpoint restores the simulator section into the ring of a
// freshly started lane (head 0) and the predictor's state, validating that
// the blob was taken under the same pipeline configuration and that
// every in-flight context fits the predictor's geometry. On error the
// predictor and ring are in an unspecified state; the caller falls
// back to Reset and a cold start.
func (rn *Runner[C]) decodeCheckpoint(ln *lane[C], opt Options, blob []byte) (simState, error) {
	var st simState
	dec := checkpoint.NewDecoder(blob)
	walkSim(dec.Walker(), ln, opt, &st)
	ln.p.Restore(dec)
	return st, dec.Err()
}

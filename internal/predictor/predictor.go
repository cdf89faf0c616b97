// Package predictor defines the contract between branch predictors and the
// trace-driven pipeline simulator. The design follows the hardware reality
// that Section 4 of the paper analyses: everything a predictor reads at
// prediction time is captured into a per-branch context that travels down
// the pipeline with the branch, so that at retire time the update can be
// performed either from re-read table state (scenarios [A] and [C]) or
// exclusively from the values captured at fetch (scenario [B]).
package predictor

import (
	"repro/internal/checkpoint"
	"repro/internal/memarray"
)

// Scenario enumerates the update-timing policies of Section 4.1.2.
type Scenario int

const (
	// ScenarioI is the oracle: tables are updated immediately after each
	// prediction. Not implementable in hardware (wrong-path pollution);
	// used as the reference.
	ScenarioI Scenario = iota
	// ScenarioA re-reads the prediction tables at retire time before the
	// update: up to 3 accesses per branch.
	ScenarioA
	// ScenarioB reads only at fetch time; the update is computed from the
	// values propagated down the pipeline: at most 1 read + 1 write.
	ScenarioB
	// ScenarioC re-reads at retire time only for mispredicted branches.
	ScenarioC
)

// Letter returns the bare scenario letter ("I", "A", "B", "C"): the
// machine-readable form used in harness cell keys and CLI flags, versus
// String's bracketed paper notation.
func (s Scenario) Letter() string {
	switch s {
	case ScenarioI:
		return "I"
	case ScenarioA:
		return "A"
	case ScenarioB:
		return "B"
	case ScenarioC:
		return "C"
	}
	return "?"
}

// String returns the paper's bracket notation for the scenario.
func (s Scenario) String() string {
	switch s {
	case ScenarioI:
		return "[I]"
	case ScenarioA:
		return "[A]"
	case ScenarioB:
		return "[B]"
	case ScenarioC:
		return "[C]"
	}
	return "[?]"
}

// Predictor is the generic contract implemented by every predictor in this
// repository. C is the per-branch pipeline context: a plain struct holding
// the indices, tags and counter values the predictor read at prediction
// time. The simulator owns a ring of C values (one per in-flight branch)
// so the hot path allocates nothing.
//
// Each implementation declares its dynamic state once, as a
// checkpoint.Walker walk: Reset, Snapshot and Restore are that one walk
// run in its reset, encode and decode modes, so the three can never
// disagree about which fields exist or in what order. WalkCtx declares
// the pipeline context the same way.
type Predictor[C any] interface {
	// Name identifies the configuration for reports.
	Name() string
	// StorageBits returns the predictor storage budget in bits.
	StorageBits() int
	// Predict computes the direction prediction for pc and records into
	// ctx everything that must travel with the branch.
	Predict(pc uint64, ctx *C) bool
	// OnResolve is called once per branch, immediately after Predict, with
	// the architectural outcome (trace-driven simulation is on the correct
	// path, so speculative history equals correct history, as the paper
	// notes). Implementations update speculative state here: global/path/
	// local histories, folded histories, IUM and SLIM structures.
	OnResolve(pc uint64, taken, mispredicted bool, ctx *C)
	// Retire performs the predictor table update at retire time. When
	// reread is true the implementation may consult current table state;
	// when false it must compute the update purely from ctx (scenario [B],
	// and scenario [C] on correctly predicted branches).
	Retire(pc uint64, taken bool, ctx *C, reread bool)
	// AccessStats exposes the predictor's access accounting.
	AccessStats() *memarray.Stats
	// Reset returns the predictor to its freshly-constructed state without
	// allocating, so pools can reuse warmed instances across runs: the
	// state walk in reset mode, which sets every field to the
	// construction value it declares. Constructors allocate, then run
	// the same walk as checkpoint.Fresh. After Reset the predictor must
	// behave byte-identically to a new instance built from the same
	// configuration.
	Reset()
	// Snapshot serializes the predictor's full dynamic state (tables,
	// histories, counters, RNG, accounting) into the encoder as a named,
	// versioned section, so a warm instance can be reconstructed later:
	// the state walk in encode mode. Composed predictors delegate a
	// section to each component.
	Snapshot(enc *checkpoint.Encoder)
	// Restore rebuilds the dynamic state from a Snapshot taken by a
	// predictor of the identical configuration: the state walk in decode
	// mode. Failures (wrong section, other version, size mismatch,
	// truncation, a cursor out of range) stick to the decoder; callers
	// check dec.Err() and fall back to Reset on error — after a failed
	// Restore the predictor state is unspecified until Reset.
	Restore(dec *checkpoint.Decoder)
	// WalkCtx visits one in-flight pipeline context, so the simulator can
	// checkpoint the branches between fetch and retire. Every field that
	// indexes a table (or names a component) is range-checked against
	// this predictor's own geometry when decoding, so a hostile blob is
	// refused instead of reaching Retire with an index past a table.
	WalkCtx(w checkpoint.Walker, ctx *C)
}

// Sibling is implemented by predictors whose scenario-independent front
// end can feed more than one table core. Sibling returns a predictor of
// the same configuration with its own, freshly built core that shares
// the receiver's front end. A simulator runs the receiver and its
// siblings as lanes of one pass over a trace, one update scenario per
// lane; the implementation documents the order the lanes must keep.
type Sibling[C any] interface {
	Sibling() Predictor[C]
}

// Package repro is a from-scratch Go reproduction of "A New Case for the
// TAGE Branch Predictor" (André Seznec, MICRO 2011): the TAGE conditional
// branch predictor and every system the paper builds on or compares
// against — the ISL-TAGE and TAGE-LSC composite predictors (IUM, loop
// predictor, global and local Statistical Correctors), the gshare, GEHL,
// piecewise-linear and fused-two-level baselines, a CBP-3-style
// trace-driven pipeline simulator with the paper's four update-timing
// scenarii, a 4-way bank-interleaving hardware model, a CACTI-like
// area/energy model, and a synthetic 40-trace benchmark suite.
//
// The package is a facade over the internal implementation: construct a
// predictor Model, generate (or load) traces, and run simulations.
//
//	model := repro.TAGELSC512K()
//	tr := repro.MustGenerateTrace("INT01", 1_000_000)
//	res := model.Run(tr, repro.Options{Scenario: repro.ScenarioA})
//	fmt.Println(res.MPKI, res.MPPKI)
//
// Models are identified by declarative specs (see ParseSpec and the
// README "Model specs" section). internal/models declares every model
// once, in one table of named models plus a parseable configuration
// grammar, and the named constructors above, LookupModel, BenchModels
// and BenchResolver all resolve through it. Arbitrary points of the
// design space (table counts, history series, tag widths, composite
// stacks, storage budgets) build through the same lifecycle:
//
//	spec, _ := repro.ParseSpec("tage:tables=9,hist=6:500")
//	model, _ := spec.Build()   // spec.Canonical() identifies it everywhere
//
// Every table and figure of the paper can be regenerated through
// RunExperiment (experiment ids E1..E15, indexed in internal/experiments
// and surfaced by the cmd/bptables binary), and swept at scale through
// the bench harness (BenchMatrix, cmd/bpbench).
package repro

import (
	"repro/internal/harness"
	"repro/internal/memarray"
	"repro/internal/models"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Re-exported simulation types.
type (
	// Trace is a materialised branch trace.
	Trace = trace.Trace
	// Branch is one dynamic conditional branch.
	Branch = trace.Branch
	// Options configures a simulation run.
	Options = sim.Options
	// Checkpoint is a mid-trace (or end-of-trace) simulation snapshot:
	// assign one to Options.Resume to warm-start a run, receive them via
	// Options.OnCheckpoint. A blob handed to OnCheckpoint is valid until
	// the callback returns (the runner reuses its buffer for the next
	// checkpoint), so a callback that keeps one copies it.
	Checkpoint = sim.Checkpoint
	// Result is the outcome of simulating one trace. Its Also holds the
	// results of Options.Also in a slice the runner reuses: it is valid
	// until that runner's next call, so a caller that keeps it copies it.
	Result = sim.Result
	// AccessStats counts a run's predictor accesses (Result.Access).
	AccessStats = memarray.Stats
	// Scenario selects the update-timing policy of Section 4.1.2.
	Scenario = predictor.Scenario
	// Model is a branch predictor configuration that can be instantiated
	// and simulated. Each Run starts from cold state.
	Model = models.Model
	// Session is a stateful predictor handle for direct use (see
	// Model.NewSession).
	Session = models.Session
)

// Update-timing scenarii (Section 4.1.2).
const (
	// ScenarioI is the oracle immediate update.
	ScenarioI = predictor.ScenarioI
	// ScenarioA re-reads the tables at retire time.
	ScenarioA = predictor.ScenarioA
	// ScenarioB never re-reads (fetch-time values only).
	ScenarioB = predictor.ScenarioB
	// ScenarioC re-reads only on mispredictions.
	ScenarioC = predictor.ScenarioC
)

// --- the paper's predictor configurations ---
//
// Each named constructor is one row of the internal/models table, looked
// up by its spec: the table declares every named model once.

// ReferenceTAGE is the Section 3.4 reference predictor: 13 components,
// (6,2000) geometric series, 65,408 bytes.
func ReferenceTAGE() *Model { return namedModel("tage") }

// TAGEWithIUM is the reference TAGE with the Immediate Update Mimicker of
// Section 5.1.
func TAGEWithIUM() *Model { return namedModel("tage-ium") }

// ISLTAGE is the Section 5 predictor: TAGE + IUM + loop predictor +
// global-history Statistical Corrector.
func ISLTAGE() *Model { return namedModel("isl-tage") }

// TAGELSC512K is the Section 6.1 budget-matched TAGE-LSC: the reference
// TAGE with table T7 halved plus the 30Kbit Local Statistical Corrector,
// within 512 Kbits.
func TAGELSC512K() *Model { return namedModel("tage-lsc") }

// TAGELSCInterleaved is the Section 7 cost-effective TAGE-LSC: 4-way
// bank-interleaved single-ported tables for both the TAGE and the local
// components.
func TAGELSCInterleaved() *Model { return namedModel("tage-lsc-banked") }

// ScaledTAGE returns the reference TAGE with all component sizes scaled by
// 2^deltaLog (the Figure 9 protocol); deltaLog 0 is 512Kbit.
func ScaledTAGE(deltaLog int) *Model { return namedModel(harness.ScaledName("tage", deltaLog)) }

// ScaledTAGELSC returns TAGE-LSC with the TAGE component sizes scaled by
// 2^deltaLog, the other half of the Figure 9 sweep; deltaLog 0 is the
// 512Kbit budget match.
func ScaledTAGELSC(deltaLog int) *Model {
	return namedModel(harness.ScaledName("tage-lsc", deltaLog))
}

// Gshare512K is the 512Kbit gshare baseline of Section 4.1.
func Gshare512K() *Model { return namedModel("gshare") }

// GEHL520K is the 520Kbit GEHL baseline of Section 4.1.
func GEHL520K() *Model { return namedModel("gehl") }

// OHSNAP is the piecewise-linear (OH-SNAP-like) neural comparator of
// Section 6.3.
func OHSNAP() *Model { return namedModel("ohsnap") }

// FTLPP is the fused two-level (FTL++-like) comparator of Section 6.3.
func FTLPP() *Model { return namedModel("ftlpp") }

// namedModel looks up a spec the model table declares, which cannot fail.
func namedModel(spec string) *Model {
	m, err := LookupModel(spec)
	if err != nil {
		panic(err)
	}
	return m
}

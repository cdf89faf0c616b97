package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The resumable result store: a saved JSONL run is append-only, and a
// resume run re-executes only the cells the store is missing (or that
// failed), appending the new records — so an interrupted multi-hour
// sweep continues where it stopped instead of restarting, and re-running
// a completed sweep executes zero simulator jobs.

// ReadStoreFile reads a resume store, tolerating the damage an
// interrupted run leaves behind: a final line that is unterminated or
// unparseable (the process died mid-write) is treated as a crash tail —
// dropped from the records and excluded from the returned valid byte
// length, so the caller can truncate to validLen before appending. A
// bad line *followed by* more data is genuine corruption and errors. A
// missing file is an error (callers decide whether that starts a fresh
// store).
//
// Records are schema-migrated in place as they are read: a record whose
// provenance names a schema newer than this binary's SchemaVersion is
// rejected with a clear error (never silently dropped — it is real data
// from a newer binary, not a crash tail), and records from older schemas
// are upgraded to the current shape (see migrateRecord).
//
// The store is read as a stream, one line in memory at a time, so a
// multi-gigabyte store costs its record slice and nothing more — the
// byte accounting (and therefore where a crash tail starts) is
// identical to what reading the whole file at once would compute.
func ReadStoreFile(path string) (recs []Record, validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64*1024)
	for {
		line, readErr := br.ReadBytes('\n')
		if readErr == io.EOF {
			// Whatever ReadBytes accumulated has no terminator: an
			// unterminated tail from a crash mid-write, dropped.
			break
		}
		if readErr != nil {
			return nil, 0, fmt.Errorf("%s: reading store: %w", path, readErr)
		}
		content := line[:len(line)-1]
		if len(bytes.TrimSpace(content)) > 0 {
			var r Record
			if jsonErr := json.Unmarshal(content, &r); jsonErr != nil {
				if tailHasData(br) {
					return nil, 0, fmt.Errorf("%s: store corrupt at byte %d (not a crash tail: more records follow): %w", path, validLen, jsonErr)
				}
				break // bad final line: crash tail
			}
			if err := migrateRecord(&r); err != nil {
				return nil, 0, fmt.Errorf("%s: record at byte %d: %w", path, validLen, err)
			}
			recs = append(recs, r)
		}
		validLen += int64(len(line))
	}
	return recs, validLen, nil
}

// tailHasData reports whether anything non-whitespace remains in the
// stream — the test that distinguishes a crash tail (garbage last
// line, nothing after) from mid-store corruption. Scans in fixed-size
// chunks; never buffers the remainder.
func tailHasData(br *bufio.Reader) bool {
	var buf [32 * 1024]byte
	for {
		n, err := br.Read(buf[:])
		if len(bytes.TrimSpace(buf[:n])) > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
}

// migrateRecord upgrades a stored record to the current schema, or
// rejects it when it was written by a newer binary than this one (whose
// fields this binary could misinterpret or silently drop on rewrite).
// Upgrades applied:
//
//   - schema < 3: the Spec field did not exist. The model identifier has
//     always been the canonical spec for named models ("tage") and scaled
//     variants ("tage@+2"), so it backfills Spec — letting pre-spec
//     stores participate in spec-validated resumes.
//   - schema < 4: the TraceSpec field did not exist, but needs no
//     backfill — every trace identity those schemas could record (named
//     benchmarks) is its own spec, which is exactly what an empty
//     TraceSpec means.
//   - schema < 5: cells carry no Access counters, and none can be
//     backfilled; readers that need them (the paper's Section 4
//     experiments) must refuse such cells rather than read zeros.
func migrateRecord(r *Record) error {
	schema := 1 // records that predate provenance stamping
	if r.Provenance != nil && r.Provenance.Schema > 0 {
		schema = r.Provenance.Schema
	}
	if schema > SchemaVersion {
		return fmt.Errorf("harness: record written under store schema %d, but this binary understands at most schema %d; re-read the store with the newer binary that wrote it", schema, SchemaVersion)
	}
	if schema < 3 && r.Spec == "" {
		r.Spec = r.Model
	}
	return nil
}

// ResumePlan partitions an expanded job list against a prior record
// stream (typically ReadRecordsFile on the run's own output).
type ResumePlan struct {
	// Jobs is the full expansion, in matrix order.
	Jobs []Job
	// Todo lists the jobs to execute: cells with no successful prior
	// record. It is a subsequence of Jobs, so appended records extend the
	// store in expansion order.
	Todo []Job
	// Reused maps cell keys to the prior successful records standing in
	// for the skipped jobs.
	Reused map[string]Record
	// PriorHasAggregates reports whether the prior stream already ends in
	// aggregate records, i.e. the stored run completed. A resume that has
	// nothing to execute against such a store appends nothing at all.
	PriorHasAggregates bool
	// ConfigConflicts lists cells whose stored record was simulated under
	// a different pipeline configuration (window, exec delay) than the
	// matrix requests. Such records are never reused — mixing pipeline
	// models in one store would silently change what the aggregates
	// measure — and callers should surface the conflict rather than let a
	// sweep ping-pong between configurations in the same store.
	ConfigConflicts []string
	// ProvenanceDrift lists reused cells whose recorded revision cannot
	// be trusted to match the head provenance the plan was built
	// against: a different git SHA, or uncommitted changes on either
	// side of the same SHA (a dirty measurement is unreproducible from
	// its SHA alone, and a dirty HEAD may no longer be the tree that
	// produced it). Unlike ConfigConflicts these are warnings, not
	// refusals — the cells are still reused (re-running them is exactly
	// what -resume avoids) — but a caller comparing across the store
	// should know it now spans revisions. Empty when planning with a
	// zero-SHA head (in-memory runs) or when the store predates
	// provenance stamping.
	ProvenanceDrift []string
}

// PlanResume builds the resume plan for jobs against prior records. A
// cell is reusable when the store holds a successful record under its
// key *and* the record's pipeline configuration matches the one the job
// would run (zero Window/ExecDelay in the matrix resolve to the sim
// defaults before comparing); failed cells are re-run (their error
// records stay in the append-only store — the newest record for a key
// wins on read). Prior records whose keys the matrix does not expand to
// are ignored, so one store can accumulate several overlapping sweeps.
//
// head is the provenance the new records would be stamped with
// (CurrentProvenance for a persisted store); a reused cell recorded
// under a different git SHA is flagged in ProvenanceDrift. A zero head
// disables the drift check.
func PlanResume(jobs []Job, prior []Record, head Provenance) *ResumePlan {
	plan := &ResumePlan{Jobs: jobs, Reused: make(map[string]Record)}
	ok := make(map[string]Record)
	for _, r := range prior {
		switch r.Kind {
		case KindCell, "":
			if !r.Failed() {
				ok[r.Key()] = r
			}
		default:
			plan.PriorHasAggregates = true
		}
	}
	for _, j := range jobs {
		key := j.Key()
		if r, have := ok[key]; have {
			wantW, wantD := effectivePipeline(j)
			switch {
			case r.Window != wantW || r.ExecDelay != wantD:
				plan.ConfigConflicts = append(plan.ConfigConflicts, fmt.Sprintf(
					"%s: stored window/execdelay %d/%d, requested %d/%d",
					key, r.Window, r.ExecDelay, wantW, wantD))
			case r.Spec != "" && j.Model.Spec != "" && r.Spec != j.Model.Spec:
				// The cell key matched but the recorded configuration did
				// not: the store was written when this model name meant a
				// different predictor. Reusing the record would silently
				// mix configurations under one key.
				plan.ConfigConflicts = append(plan.ConfigConflicts, fmt.Sprintf(
					"%s: stored model spec %q, requested %q",
					key, r.Spec, j.Model.Spec))
			case traceSpecMismatch(j.Spec, r):
				// Same guard on the trace axis: the stored record was
				// generated from a different workload description than the
				// one this run would regenerate under the same trace name.
				plan.ConfigConflicts = append(plan.ConfigConflicts, fmt.Sprintf(
					"%s: stored trace spec %q, requested %q",
					key, storedTraceSpec(r), j.Spec.SpecString()))
			default:
				if w := driftWarning(key, r.Provenance, head); w != "" {
					plan.ProvenanceDrift = append(plan.ProvenanceDrift, w)
				}
				plan.Reused[key] = r
				continue
			}
		}
		plan.Todo = append(plan.Todo, j)
	}
	return plan
}

// storedTraceSpec is the resolvable trace spec a record was generated
// from: the explicit TraceSpec when present, else the trace identity
// itself (named benchmarks and generator specs resolve themselves).
func storedTraceSpec(r Record) string {
	if r.TraceSpec != "" {
		return r.TraceSpec
	}
	return r.Trace
}

// traceSpecMismatch reports whether a stored record's workload
// description disagrees with the requested job's. File-backed traces
// are exempt: their trace identity is the content hash, which already
// pins the exact branch stream, and the spec is just the path it was
// loaded from — legitimately different across hosts.
func traceSpecMismatch(s workload.Spec, r Record) bool {
	if strings.HasPrefix(r.Trace, "file:") {
		return false
	}
	return storedTraceSpec(r) != s.SpecString()
}

// driftWarning describes why a reused record's provenance cannot be
// trusted against head, or returns "" when it can (or when either side
// carries no SHA to compare).
func driftWarning(key string, p *Provenance, head Provenance) string {
	if head.GitSHA == "" || p == nil || p.GitSHA == "" {
		return ""
	}
	switch {
	case p.GitSHA != head.GitSHA:
		return fmt.Sprintf("%s: recorded at %s, HEAD is %s", key, p.Short(), head.Short())
	case p.GitDirty || head.GitDirty:
		// Same SHA, but a dirty tree on either side: the SHA alone no
		// longer identifies the code, so the measurement may not match
		// the current tree even though the commits agree.
		return fmt.Sprintf("%s: recorded at %s, HEAD is %s (uncommitted changes in play)",
			key, p.Short(), head.Short())
	}
	return ""
}

// effectivePipeline resolves the job's pipeline options the way the
// simulator will (non-positive selects the default; the oracle scenario
// [I] updates immediately, with no in-flight window), matching the values
// RunTrace records.
func effectivePipeline(j Job) (window, execDelay int) {
	window, execDelay = j.Opts.Window, j.Opts.ExecDelay
	if window <= 0 {
		window = sim.DefaultWindow
	}
	if j.Scenario == predictor.ScenarioI {
		window = 0
	}
	if execDelay <= 0 {
		execDelay = sim.DefaultExecDelay
	}
	return window, execDelay
}

// ResumeStoreFile is the complete store-backed resume sequence shared
// by `bpbench -resume` and the experiments' ResultStore path: open and
// lock the store at path (a missing file starts a fresh one), read it (a
// crash tail from a killed writer is dropped and truncated away before
// appending), plan jobs against it with cfg.Provenance as the drift
// baseline, refuse on configuration conflicts (mixing pipeline models or
// model specs in one store would silently change what its aggregates
// measure), then execute the plan appending JSONL records to the store.
// onPlan, when non-nil, observes the plan after the conflict check and
// before anything runs — the place to surface ProvenanceDrift warnings —
// and may veto the run by returning an error.
//
// The store is held under an exclusive advisory lock (flock where the
// platform has it, an O_EXCL lockfile elsewhere) for the whole
// read-plan-truncate-append sequence, so two concurrent resumes cannot
// interleave appends into one store: the second opener fails fast with a
// clear error instead of corrupting the stream.
func ResumeStoreFile(path string, jobs []Job, cfg Config, onPlan func(*ResumePlan) error) (*Summary, error) {
	return ResumeStoreFileTee(path, jobs, cfg, onPlan, nil)
}

// ResumeStoreFileTee is ResumeStoreFile with every appended record
// additionally streamed to tee (nil means none): how `bpbench serve`
// both persists a submission into its store and streams the records
// back over the HTTP response without double-running anything. The tee
// sees exactly the records the store append sees, in the same order.
func ResumeStoreFileTee(path string, jobs []Job, cfg Config, onPlan func(*ResumePlan) error, tee Sink) (*Summary, error) {
	var head Provenance
	if cfg.Provenance != nil {
		head = *cfg.Provenance
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	unlock, err := lockStore(f, path)
	if err != nil {
		return nil, err
	}
	defer unlock()
	sm := newStoreMetrics(cfg.Metrics)
	prior, validLen, err := ReadStoreFile(path)
	if err != nil {
		return nil, err
	}
	if sm != nil {
		if fi, statErr := f.Stat(); statErr == nil && fi.Size() > validLen {
			sm.crashTails.Inc()
		}
	}
	plan := PlanResume(jobs, prior, head)
	if n := len(plan.ConfigConflicts); n > 0 {
		return nil, fmt.Errorf("store %s was built under a different configuration (%d cells; first: %s); rerun with the original settings or use a fresh store",
			path, n, plan.ConfigConflicts[0])
	}
	if onPlan != nil {
		if err := onPlan(plan); err != nil {
			return nil, err
		}
	}
	if sm != nil {
		sm.reused.Add(uint64(len(plan.Reused)))
	}
	// Drop the crash tail so the appended records extend a well-formed
	// stream (with O_APPEND, writes land at the new end).
	if err := f.Truncate(validLen); err != nil {
		return nil, err
	}
	sink := NewJSONLSink(sm.meter(f))
	if tee != nil {
		sink = MultiSink(sink, tee)
	}
	return RunResume(plan, cfg, sink)
}

// RunResume executes only the plan's Todo jobs, streaming the new cell
// records to sink (in expansion order — exactly the lines an append to
// the store needs), then the aggregates recomputed over the merged run
// (reused + new cells, in full expansion order), so a store completed by
// resumes is record-for-record identical to one written in a single
// uninterrupted run, modulo wall-clock telemetry. Aggregates are
// suppressed when there was nothing to run and the store already has
// them: re-resuming a complete store is a no-op append. It is the one
// executor every run goes through: RunJobs hands it a plan with nothing
// reused.
func RunResume(plan *ResumePlan, cfg Config, sink Sink) (*Summary, error) {
	sum := &Summary{Jobs: len(plan.Jobs), Skipped: len(plan.Jobs) - len(plan.Todo)}
	rm := newRunMetrics(cfg.Metrics)
	rm.beginRun(len(plan.Jobs), sum.Skipped)
	emit, emitErr := emitter(sum, sink, rm)
	fresh := cfg.scheduler().Schedule(plan.Todo, cfg, func(r Record) {
		if r.Failed() {
			sum.Failed++
		}
		emit(r)
	})
	// The merged cell set — reused records (preserved telemetry and
	// provenance) interleaved with fresh ones at their expansion
	// positions — is always assembled: it feeds the appended aggregates
	// and, via Summary.Merged, the resume-aware perf table even when the
	// store was complete and nothing is appended at all.
	merged := make([]Record, 0, len(plan.Jobs))
	next := 0
	for _, j := range plan.Jobs {
		if r, have := plan.Reused[j.Key()]; have {
			merged = append(merged, r)
		} else {
			merged = append(merged, fresh[next])
			next++
		}
	}
	sum.Merged = merged
	emitAggs := len(plan.Todo) > 0 || !plan.PriorHasAggregates
	if *emitErr == nil && !cfg.NoAggregates && emitAggs {
		// The appended aggregates roll up the merged cells, which may
		// span revisions (reused cells keep their original stamps): they
		// inherit a provenance block only when every input shares it —
		// the same rule Compact applies — so no aggregate is ever
		// attributed to a revision that didn't produce its inputs.
		aggProv := uniformProvenance(merged)
		for _, agg := range Aggregate(merged) {
			agg.Provenance = aggProv
			emit(agg)
		}
	}
	return sum, closeSink(sink, *emitErr)
}

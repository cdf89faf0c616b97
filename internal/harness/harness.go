// Package harness is the batch-experiment engine behind cmd/bpbench and
// the experiments package: a declarative matrix (models × traces ×
// scenarios × trace lengths, with include/exclude filters) is expanded
// into jobs — one per trace — and executed by a worker pool of pooled
// predictors with per-job deterministic seeding and panic isolation,
// streaming one Record per
// cell — plus per-category, hard-subset and suite-level aggregates — to
// pluggable sinks (human table, JSONL, CSV). A JSONL run can later serve
// as the baseline for Diff, which flags per-cell and aggregate
// regressions beyond a tolerance, making the harness usable as a CI
// gate.
//
// The paper's case for TAGE rests on sweeping exactly this kind of
// evaluation grid — predictors × 40 traces × update-timing scenarii ×
// budgets — and the harness is the scale-out substrate for it: one bad
// cell (a panicking predictor) is reported and skipped, not fatal to the
// sweep.
package harness

import "fmt"

// Protect runs fn, converting a panic into an error (the panic value,
// formatted). Job execution uses it so one bad cell cannot kill a sweep.
func Protect(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

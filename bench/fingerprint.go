package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"

	"repro/internal/experiments"
	"repro/internal/harness"
)

// fingerprintsJSON holds the seed-1 output fingerprint of every workload
// at each size profile: {"full": {"tage-hot": "…", …}, "tiny": {…}}.
// Regenerate it with `go test -run TestFingerprints -update`.
//
//go:embed testdata/fingerprints.json
var fingerprintsJSON []byte

// checkFingerprint compares a seed-1 rep's fingerprint with the recorded
// one; other seeds have no record (their traces are remixed).
func checkFingerprint(e *env, workload, got string) []string {
	if e.seed != 1 {
		return nil
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &want); err != nil {
		return []string{fmt.Sprintf("testdata/fingerprints.json: %v", err)}
	}
	if w := want[e.sz.profile][workload]; w != got {
		return []string{fmt.Sprintf("%s outputs at the %s sizes: fingerprint %s, recorded %q", workload, e.sz.profile, got, w)}
	}
	return nil
}

// hasher folds output lines into a 64-bit FNV-1a fingerprint.
type hasher struct{ h hash.Hash64 }

func newHasher() hasher { return hasher{fnv.New64a()} }

func (h hasher) line(s string) { fmt.Fprintln(h.h, s) }

func (h hasher) sum() string { return fmt.Sprintf("%016x", h.h.Sum64()) }

// recordLine renders every field of a record that a simulation
// determines — everything `bpbench diff` compares and more — leaving out
// wall-clock telemetry and provenance. Floats are rounded to nine
// significant digits so a fused multiply-add on another architecture
// cannot move a fingerprint; the integer counts stay exact.
func recordLine(r harness.Record) string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|%d|%d|%d|%d|%d|%.9g|%.9g|%.9g|%.9g|%d|%d|%.9g|%d|%d|%s",
		r.Kind, r.Key(), r.Spec, r.TraceSpec, r.Category, r.Seed, r.DeltaLog, r.StorageBits,
		r.Window, r.ExecDelay, r.MPKI, r.MPPKI, r.MPKISum, r.MPPKISum, r.Mispredicts,
		r.MicroOps, r.Misprediction, r.SimBranches, r.Cells, r.Err)
}

// fingerprint hashes a record stream in order.
func fingerprint(recs []harness.Record) string {
	h := newHasher()
	for _, r := range recs {
		h.line(recordLine(r))
	}
	return h.sum()
}

// hashReport folds an experiment report's rows and shape checks.
func hashReport(h hasher, r experiments.Report) {
	h.line(r.ID)
	for _, row := range r.Rows {
		h.line(row.Label + "|" + row.Paper + "|" + row.Measured)
	}
	for _, c := range r.Checks {
		h.line(fmt.Sprintf("%s|%t", c.Name, c.Pass))
	}
}

// sameRecords checks that two paths produced the same records: no
// movement under harness.Diff at zero tolerance, and every record equal
// field for field (recordLine), cells and aggregates alike. It returns
// one line per mismatching record.
func sameRecords(what string, want, got []harness.Record) []string {
	var bad []string
	d := harness.Diff(want, got, harness.DiffOptions{Tolerance: -1, AbsFloor: -1})
	for _, c := range append(d.Regressions, d.Improvements...) {
		bad = append(bad, fmt.Sprintf("%s: %s MPKI %.9g vs %.9g", what, c.Key, c.Old, c.New))
	}
	for _, k := range d.MissingInNew {
		bad = append(bad, fmt.Sprintf("%s: %s missing", what, k))
	}
	for _, k := range d.MissingInOld {
		bad = append(bad, fmt.Sprintf("%s: %s unexpected", what, k))
	}
	byKey := make(map[string]string, len(got))
	for _, r := range got {
		byKey[r.Kind+"/"+r.Key()] = recordLine(r)
	}
	for _, r := range want {
		if line, ok := byKey[r.Kind+"/"+r.Key()]; ok && line != recordLine(r) {
			bad = append(bad, fmt.Sprintf("%s: %s differs:\n  want %s\n  got  %s", what, r.Key(), recordLine(r), line))
		}
	}
	if len(want) != len(got) {
		bad = append(bad, fmt.Sprintf("%s: %d records, want %d", what, len(got), len(want)))
	}
	return bad
}

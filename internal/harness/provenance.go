package harness

import (
	"bytes"
	"fmt"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

// SchemaVersion identifies the record schema a store was written under.
// Version 1 is the unversioned pre-provenance format (stores written
// before provenance stamping existed carry no block at all and read as
// schema 1 implicitly); version 2 added the per-record Provenance block;
// version 3 added the canonical model-spec field (older records are
// upgraded on read by backfilling it from the model identifier — see
// migrateRecord — and records from schemas newer than this constant are
// rejected on read rather than misread); version 4 added the trace-spec
// field (empty means the trace identity is its own spec, which holds for
// every record from older schemas, so no backfill is needed); version 5
// added the nested access-counter object on cell records (older records
// leave it nil: the counters were never measured, and there is nothing
// to backfill). Bump this whenever a Record field changes meaning, so
// long-lived stores can tell which revision of the harness wrote each
// line.
const SchemaVersion = 5

// Provenance records where a result came from: the source revision the
// harness was built from, whether the tree was dirty, and the toolchain.
// Every record a run appends to a store is stamped with the same block
// (see Config.Provenance), so a long-lived store that has survived
// predictor changes can say exactly which code produced each cell —
// the reproducibility hazard long-running comparisons otherwise hit.
type Provenance struct {
	// GitSHA is the full commit hash of HEAD at run time ("" when no
	// repository or VCS build info was found).
	GitSHA string `json:"git_sha,omitempty"`
	// GitDirty reports uncommitted changes at run time: a dirty record
	// can never be reproduced from GitSHA alone.
	GitDirty bool `json:"git_dirty,omitempty"`
	// GoVersion is the toolchain that built the harness.
	GoVersion string `json:"go_version,omitempty"`
	// Schema is the record-schema version the writer used.
	Schema int `json:"schema,omitempty"`
}

// IsZero reports whether the block carries no information at all.
func (p Provenance) IsZero() bool { return p == Provenance{} }

// Short renders the provenance compactly for warnings and table columns:
// an abbreviated SHA plus a "+dirty" marker, or "unknown" when the
// record predates provenance stamping.
func (p Provenance) Short() string {
	if p.GitSHA == "" {
		return "unknown"
	}
	s := p.GitSHA
	if len(s) > 10 {
		s = s[:10]
	}
	if p.GitDirty {
		s += "+dirty"
	}
	return s
}

var (
	provOnce sync.Once
	provCur  Provenance
)

// CurrentProvenance returns the provenance of the running process,
// computed once: the binary's embedded VCS build info when present (it
// describes the code that was built, wherever the process later runs),
// otherwise HEAD's SHA and dirty state from git in the working
// directory — the dev-loop case, where `go run` and `go test` binaries
// carry no embedded VCS state and the CWD is the repository being
// measured. Plus the Go toolchain version and the current schema
// version; a process with neither source of truth still gets a valid
// (SHA-less) block.
func CurrentProvenance() Provenance {
	provOnce.Do(func() { provCur = readProvenance() })
	return provCur
}

func readProvenance() Provenance {
	p := Provenance{GoVersion: runtime.Version(), Schema: SchemaVersion}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitSHA = s.Value
			case "vcs.modified":
				p.GitDirty = s.Value == "true"
			}
		}
		if p.GitSHA != "" {
			return p
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.GitDirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return p
}

// StoreProvenance summarises where a store's measurements came from:
// the distinct provenance blocks across its cell records, in
// first-appearance order (aggregates are derived data and don't count).
// Cells written before provenance stamping contribute a single zero
// block, so a mixed old/new store visibly reports both eras. A
// single-element result means every measurement was produced by one
// revision — the precondition for comparing the store's cells against
// each other without caveats.
func StoreProvenance(recs []Record) []Provenance {
	var out []Provenance
	seen := make(map[Provenance]bool)
	for _, r := range recs {
		if r.Kind != KindCell && r.Kind != "" {
			continue
		}
		var p Provenance
		if r.Provenance != nil {
			p = *r.Provenance
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// describeProvenance renders a distinct-provenance list for reports.
func describeProvenance(ps []Provenance) string {
	if len(ps) == 0 {
		return "none"
	}
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.Short()
	}
	return fmt.Sprintf("[%s]", strings.Join(parts, " "))
}

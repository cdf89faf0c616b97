package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// DiffOptions tunes regression detection. The zero value gets the
// documented defaults; pass a negative value to demand exact matching
// (a strict zero tolerance or floor).
type DiffOptions struct {
	// Tolerance is the relative MPKI increase treated as noise
	// (default 0.02 = 2%; negative means exactly zero).
	Tolerance float64
	// AbsFloor is an absolute MPKI delta below which a cell never counts
	// as a regression or improvement, guarding near-zero baselines
	// against relative-noise blowups (default 0.005 MPKI; negative means
	// exactly zero).
	AbsFloor float64
}

func (o DiffOptions) withDefaults() DiffOptions {
	switch {
	case o.Tolerance == 0:
		o.Tolerance = 0.02
	case o.Tolerance < 0:
		o.Tolerance = 0
	}
	switch {
	case o.AbsFloor == 0:
		o.AbsFloor = 0.005
	case o.AbsFloor < 0:
		o.AbsFloor = 0
	}
	return o
}

// DiffCell is one compared record pair.
type DiffCell struct {
	Key      string
	Old, New float64 // MPKI
	// Delta is New-Old; RelDelta is Delta/Old (0 when Old is 0).
	Delta    float64
	RelDelta float64
	// OldProv and NewProv are the short provenance renderings of the two
	// records ("unknown" for records that predate provenance stamping),
	// shown as a column when the report has ShowProvenance set.
	OldProv, NewProv string
}

// DiffReport summarises a baseline comparison. Regressions and
// Improvements cover cell records only (they drive the exit status);
// Aggregates reports suite/hard/category deltas informationally.
type DiffReport struct {
	Cells        int
	Regressions  []DiffCell
	Improvements []DiffCell
	Aggregates   []DiffCell
	// MissingInNew / MissingInOld list cell keys present on only one
	// side (matrix shape changed, or a side had failed cells).
	MissingInNew []string
	MissingInOld []string
	// ConfigMismatches lists compared cells whose pipeline configuration
	// (window, exec delay) differs between the sides: their MPKI deltas
	// measure the pipeline change, not the predictor.
	ConfigMismatches []string
	// FailedOld / FailedNew count error records per side.
	FailedOld, FailedNew int
	// OldProvenance / NewProvenance list the distinct provenance blocks
	// of each side, in first-appearance order (see StoreProvenance).
	OldProvenance, NewProvenance []Provenance
	// ShowProvenance makes Render print the provenance summary line and
	// a per-cell provenance column. It never affects the comparison
	// itself: provenance, like timing, cannot regress a diff.
	ShowProvenance bool
}

// HasRegressions reports whether the new run is worse than the
// baseline: a cell's MPKI regressed beyond tolerance, a baseline cell
// is missing from the new run (coverage shrank — CI must not pass on a
// sweep that silently stopped measuring cells), or cells newly fail.
// Cells only the new run has (coverage grew) are fine.
func (d *DiffReport) HasRegressions() bool {
	return len(d.Regressions) > 0 || len(d.MissingInNew) > 0 || d.FailedNew > d.FailedOld
}

// ReadRecords parses a JSONL record stream (as produced by the jsonl
// sink) and returns all records in file order. Its line buffer starts
// small and grows with the longest line, up to 4 MiB, so reading one
// lease's results costs little more than the records themselves.
func ReadRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("harness: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadRecordsFile reads a JSONL baseline from disk.
func ReadRecordsFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadRecords(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func indexRecords(recs []Record) (cells, aggs map[string]Record, failed int) {
	cells = make(map[string]Record)
	aggs = make(map[string]Record)
	for _, r := range recs {
		if r.Failed() {
			failed++
			continue
		}
		switch r.Kind {
		case KindCell, "":
			cells[r.Key()] = r
		default:
			aggs[r.Key()] = r
		}
	}
	return cells, aggs, failed
}

// Diff compares two record sets (typically: a checked-in baseline JSONL
// and a fresh run) cell by cell on MPKI. A cell regresses when its MPKI
// rises by more than max(AbsFloor, Tolerance×old); improvements are the
// symmetric case. Lists are sorted by descending |relative delta| so the
// worst movement leads the report.
func Diff(old, new []Record, opt DiffOptions) *DiffReport {
	opt = opt.withDefaults()
	oldCells, oldAggs, failedOld := indexRecords(old)
	newCells, newAggs, failedNew := indexRecords(new)
	rep := &DiffReport{
		FailedOld:     failedOld,
		FailedNew:     failedNew,
		OldProvenance: StoreProvenance(old),
		NewProvenance: StoreProvenance(new),
	}

	keys := make([]string, 0, len(oldCells))
	for k := range oldCells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		o := oldCells[k]
		n, ok := newCells[k]
		if !ok {
			rep.MissingInNew = append(rep.MissingInNew, k)
			continue
		}
		rep.Cells++
		if o.Window != n.Window || o.ExecDelay != n.ExecDelay {
			rep.ConfigMismatches = append(rep.ConfigMismatches, fmt.Sprintf(
				"%s: window/execdelay %d/%d vs %d/%d",
				k, o.Window, o.ExecDelay, n.Window, n.ExecDelay))
		}
		c := compare(k, o, n)
		threshold := opt.Tolerance * o.MPKI
		if threshold < opt.AbsFloor {
			threshold = opt.AbsFloor
		}
		switch {
		case c.Delta > threshold:
			rep.Regressions = append(rep.Regressions, c)
		case -c.Delta > threshold:
			rep.Improvements = append(rep.Improvements, c)
		}
	}
	newKeys := make([]string, 0, len(newCells))
	for k := range newCells {
		newKeys = append(newKeys, k)
	}
	sort.Strings(newKeys)
	for _, k := range newKeys {
		if _, ok := oldCells[k]; !ok {
			rep.MissingInOld = append(rep.MissingInOld, k)
		}
	}

	aggKeys := make([]string, 0, len(oldAggs))
	for k := range oldAggs {
		aggKeys = append(aggKeys, k)
	}
	sort.Strings(aggKeys)
	for _, k := range aggKeys {
		if n, ok := newAggs[k]; ok {
			rep.Aggregates = append(rep.Aggregates, compare(k, oldAggs[k], n))
		}
	}

	byMagnitude := func(cs []DiffCell) {
		sort.SliceStable(cs, func(a, b int) bool {
			da, db := cs[a].RelDelta, cs[b].RelDelta
			if da < 0 {
				da = -da
			}
			if db < 0 {
				db = -db
			}
			return da > db
		})
	}
	byMagnitude(rep.Regressions)
	byMagnitude(rep.Improvements)
	return rep
}

func compare(key string, old, new Record) DiffCell {
	c := DiffCell{Key: key, Old: old.MPKI, New: new.MPKI, Delta: new.MPKI - old.MPKI}
	if old.MPKI != 0 {
		c.RelDelta = c.Delta / old.MPKI
	}
	c.OldProv, c.NewProv = provShort(old), provShort(new)
	return c
}

func provShort(r Record) string {
	if r.Provenance == nil {
		return Provenance{}.Short()
	}
	return r.Provenance.Short()
}

// Render writes the human-readable diff report. With ShowProvenance set
// it adds a store-level provenance summary and a per-cell provenance
// column, so a reviewer can tell at a glance whether a movement compares
// like against like or spans revisions.
func (d *DiffReport) Render(w io.Writer) {
	fmt.Fprintf(w, "compared %d cells: %d regressions, %d improvements\n",
		d.Cells, len(d.Regressions), len(d.Improvements))
	if d.ShowProvenance {
		fmt.Fprintf(w, "provenance: baseline=%s new=%s\n",
			describeProvenance(d.OldProvenance), describeProvenance(d.NewProvenance))
	}
	provCol := func(c DiffCell) string {
		if !d.ShowProvenance {
			return ""
		}
		if c.OldProv == c.NewProv {
			return fmt.Sprintf("  [%s]", c.NewProv)
		}
		return fmt.Sprintf("  [%s -> %s]", c.OldProv, c.NewProv)
	}
	printCells := func(title string, cs []DiffCell) {
		if len(cs) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, c := range cs {
			fmt.Fprintf(w, "  %-40s MPKI %8.4f -> %8.4f (%+.4f, %+.1f%%)%s\n",
				c.Key, c.Old, c.New, c.Delta, 100*c.RelDelta, provCol(c))
		}
	}
	printCells("REGRESSIONS", d.Regressions)
	printCells("improvements", d.Improvements)
	if len(d.Aggregates) > 0 {
		fmt.Fprintln(w, "aggregates:")
		for _, c := range d.Aggregates {
			fmt.Fprintf(w, "  %-40s MPKI %8.4f -> %8.4f (%+.1f%%)\n",
				c.Key, c.Old, c.New, 100*c.RelDelta)
		}
	}
	for _, m := range d.ConfigMismatches {
		fmt.Fprintf(w, "  WARNING pipeline config differs: %s\n", m)
	}
	for _, k := range d.MissingInNew {
		fmt.Fprintf(w, "  missing in new run: %s\n", k)
	}
	for _, k := range d.MissingInOld {
		fmt.Fprintf(w, "  not in baseline:    %s\n", k)
	}
	if d.FailedOld > 0 || d.FailedNew > 0 {
		fmt.Fprintf(w, "failed cells: baseline=%d new=%d\n", d.FailedOld, d.FailedNew)
	}
}

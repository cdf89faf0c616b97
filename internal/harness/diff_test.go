package harness

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/memarray"
)

func cell(model, trace, scenario string, branches int, mpki float64) Record {
	return Record{
		Kind: KindCell, Model: model, Trace: trace, Category: "INT",
		Scenario: scenario, Branches: branches, MPKI: mpki, MPPKI: 20 * mpki,
	}
}

func TestDiffClassification(t *testing.T) {
	old := []Record{
		cell("tage", "INT01", "A", 1000, 10.0),
		cell("tage", "INT02", "A", 1000, 10.0),
		cell("tage", "INT03", "A", 1000, 10.0),
		cell("tage", "INT04", "A", 1000, 0.001),
		cell("tage", "INT05", "A", 1000, 5.0),
	}
	new := []Record{
		cell("tage", "INT01", "A", 1000, 10.1),  // +1%: within 2% tolerance
		cell("tage", "INT02", "A", 1000, 11.0),  // +10%: regression
		cell("tage", "INT03", "A", 1000, 9.0),   // -10%: improvement
		cell("tage", "INT04", "A", 1000, 0.004), // 4x relative but under AbsFloor
		cell("tage", "INT06", "A", 1000, 5.0),   // INT05 gone, INT06 new
	}
	rep := Diff(old, new, DiffOptions{})
	if rep.Cells != 4 {
		t.Fatalf("compared %d cells, want 4", rep.Cells)
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Key != "tage/INT02/A/1000" {
		t.Fatalf("regressions = %+v", rep.Regressions)
	}
	if len(rep.Improvements) != 1 || rep.Improvements[0].Key != "tage/INT03/A/1000" {
		t.Fatalf("improvements = %+v", rep.Improvements)
	}
	if len(rep.MissingInNew) != 1 || rep.MissingInNew[0] != "tage/INT05/A/1000" {
		t.Fatalf("missing-in-new = %v", rep.MissingInNew)
	}
	if len(rep.MissingInOld) != 1 || rep.MissingInOld[0] != "tage/INT06/A/1000" {
		t.Fatalf("missing-in-old = %v", rep.MissingInOld)
	}
	if !rep.HasRegressions() {
		t.Fatal("report must flag regressions")
	}

	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{"REGRESSIONS", "tage/INT02/A/1000", "improvements", "missing in new run"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDiffShrunkCoverageIsARegression(t *testing.T) {
	// A new run that silently stopped measuring a baseline cell must not
	// pass: CI would otherwise go green on a sweep that covers nothing.
	old := []Record{
		cell("m", "INT01", "A", 100, 1.0),
		cell("m", "INT02", "A", 100, 1.0),
	}
	rep := Diff(old, old[:1], DiffOptions{})
	if !rep.HasRegressions() {
		t.Fatal("shrunk coverage must fail the diff")
	}
	// Grown coverage (new cells only on the new side) is fine.
	rep = Diff(old[:1], old, DiffOptions{})
	if rep.HasRegressions() {
		t.Fatal("grown coverage must pass")
	}
}

func TestDiffToleranceOverride(t *testing.T) {
	old := []Record{cell("m", "INT01", "A", 100, 10.0)}
	new := []Record{cell("m", "INT01", "A", 100, 10.5)}
	if rep := Diff(old, new, DiffOptions{Tolerance: 0.10}); rep.HasRegressions() {
		t.Fatal("+5% must pass at 10% tolerance")
	}
	if rep := Diff(old, new, DiffOptions{Tolerance: 0.01}); !rep.HasRegressions() {
		t.Fatal("+5% must fail at 1% tolerance")
	}
}

func TestDiffStrictZeroTolerance(t *testing.T) {
	old := []Record{cell("m", "INT01", "A", 100, 10.0)}
	new := []Record{cell("m", "INT01", "A", 100, 10.001)}
	// Default tolerance swallows a +0.01% move...
	if rep := Diff(old, new, DiffOptions{}); rep.HasRegressions() {
		t.Fatal("+0.01% must pass at default tolerance")
	}
	// ...but negative (strict) tolerance and floor demand exactness.
	if rep := Diff(old, new, DiffOptions{Tolerance: -1, AbsFloor: -1}); !rep.HasRegressions() {
		t.Fatal("strict diff must flag any increase")
	}
}

func TestDiffNewFailuresAreRegressions(t *testing.T) {
	old := []Record{cell("m", "INT01", "A", 100, 1.0)}
	bad := cell("m", "INT01", "A", 100, 0)
	bad.Err = "panic: boom"
	rep := Diff(old, []Record{bad}, DiffOptions{})
	if !rep.HasRegressions() {
		t.Fatal("newly failed cell must count as a regression")
	}
	if len(rep.MissingInNew) != 1 {
		t.Fatalf("failed cell should surface as missing, got %v", rep.MissingInNew)
	}
}

func TestDiffFlagsPipelineConfigMismatch(t *testing.T) {
	o := cell("m", "INT01", "A", 100, 1.0)
	o.Window, o.ExecDelay = 24, 6
	n := o
	n.Window = 48
	rep := Diff([]Record{o}, []Record{n}, DiffOptions{})
	if len(rep.ConfigMismatches) != 1 {
		t.Fatalf("config mismatches = %v", rep.ConfigMismatches)
	}
	if rep.HasRegressions() {
		t.Fatal("config mismatch alone must not regress")
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "pipeline config differs") {
		t.Fatalf("render missing config warning:\n%s", buf.String())
	}
}

func TestDiffAggregatesComparedByKey(t *testing.T) {
	agg := func(mpki float64) Record {
		return Record{Kind: KindSuite, Model: "m", Scenario: "A", Branches: 100, MPKI: mpki, Cells: 2}
	}
	rep := Diff([]Record{agg(2.0)}, []Record{agg(2.5)}, DiffOptions{})
	if len(rep.Aggregates) != 1 || rep.Aggregates[0].Key != "suite:m/A/100" {
		t.Fatalf("aggregates = %+v", rep.Aggregates)
	}
	// Aggregate movement alone never drives the exit status.
	if rep.HasRegressions() {
		t.Fatal("aggregate-only diff must not regress")
	}
}

func TestReadRecordsRoundTripThroughJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	// A line far longer than the line buffer's first size.
	long := cell("tage", "INT02", "A", 1000, 4.5)
	long.Err = strings.Repeat("x", 200<<10)
	recs := []Record{
		cell("tage", "INT01", "A", 1000, 3.25),
		long,
		{Kind: KindSuite, Model: "tage", Scenario: "A", Branches: 1000, MPKI: 3.25, MPKISum: 3.25, Cells: 1},
	}
	for _, r := range recs {
		if err := sink.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip length %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
	if _, err := ReadRecords(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("malformed line must error")
	}
	over := strings.Repeat("x", 5<<20) + "\n"
	if _, err := ReadRecords(strings.NewReader(over)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a line over the 4 MiB cap returned %v, want bufio.ErrTooLong", err)
	}
}

func TestCSVAndTableSinks(t *testing.T) {
	var csvBuf bytes.Buffer
	cs := NewCSVSink(&csvBuf)
	if err := cs.Emit(cell("tage", "INT01", "A", 1000, 3.5)); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "kind,model,trace") {
		t.Fatalf("csv output:\n%s", csvBuf.String())
	}
	if !strings.Contains(lines[1], "cell,tage,INT01,INT,A,1000,0,0,0,0,3.5,70") {
		t.Fatalf("csv row: %s", lines[1])
	}

	var tblBuf bytes.Buffer
	ts := NewTableSink(&tblBuf)
	fail := cell("tage", "INT02", "A", 1000, 0)
	fail.Err = "panic: boom"
	suite := Record{Kind: KindSuite, Model: "tage", Scenario: "A", Branches: 1000, MPKI: 3.5, MPPKISum: 70, Cells: 1}
	for _, r := range []Record{cell("tage", "INT01", "A", 1000, 3.5), fail, suite} {
		if err := ts.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	out := tblBuf.String()
	for _, want := range []string{"# tage scenario=A branches=1000", "INT01", "FAILED: panic: boom", "suite"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# tage") != 1 {
		t.Errorf("group header repeated:\n%s", out)
	}

	if _, err := NewSink("nope", &tblBuf); err == nil {
		t.Fatal("unknown format must error")
	}
	multi := MultiSink(NewJSONLSink(&bytes.Buffer{}), &collectSink{})
	if err := multi.Emit(suite); err != nil {
		t.Fatal(err)
	}
	if err := multi.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiffIgnoresTelemetryFields is the observability regression guard:
// every Record field that is not cell identity, not the compared metric
// (MPKI), and not the failure marker must be invisible to Diff. A run
// whose only difference from its baseline is telemetry — timing,
// throughput, provenance, counts — must show zero movement, or adding
// instrumentation would perturb ci-golden comparisons. Enumerating the
// fields by reflection means a future Record field is ignored-by-Diff
// or this test fails until its role is decided.
func TestDiffIgnoresTelemetryFields(t *testing.T) {
	// Fields that legitimately change the comparison.
	identity := map[string]bool{
		"Kind": true, "Model": true, "Trace": true, "Category": true,
		"Scenario": true, "Branches": true,
	}
	compared := map[string]bool{"MPKI": true, "Err": true}
	// Window/ExecDelay are surfaced as config-mismatch warnings but must
	// never count as regressions.
	configOnly := map[string]bool{"Window": true, "ExecDelay": true}

	base := []Record{
		cell("tage", "INT01", "A", 1000, 10.0),
		cell("tage", "INT02", "A", 1000, 5.0),
	}
	rt := reflect.TypeOf(Record{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if identity[f.Name] || compared[f.Name] {
			continue
		}
		mutated := make([]Record, len(base))
		copy(mutated, base)
		for j := range mutated {
			fv := reflect.ValueOf(&mutated[j]).Elem().Field(i)
			switch f.Type.Kind() {
			case reflect.String:
				fv.SetString(fv.String() + "-telemetry")
			case reflect.Int:
				fv.SetInt(fv.Int() + 7)
			case reflect.Uint64:
				fv.SetUint(fv.Uint() + 7)
			case reflect.Float64:
				fv.SetFloat(fv.Float() + 7)
			case reflect.Ptr:
				fv.Set(reflect.ValueOf(&Provenance{GitSHA: "deadbeefdeadbeef", Schema: 3}))
			case reflect.Struct:
				fv.Set(reflect.ValueOf(memarray.Stats{PredictReads: 7, WriteEvents: 7}))
			default:
				t.Fatalf("Record.%s has kind %s this test cannot mutate; extend it", f.Name, f.Type.Kind())
			}
		}
		rep := Diff(base, mutated, DiffOptions{Tolerance: -1, AbsFloor: -1})
		if rep.HasRegressions() || len(rep.Improvements) > 0 {
			t.Errorf("mutating Record.%s moved the diff: %d regressions, %d improvements, missing %v",
				f.Name, len(rep.Regressions), len(rep.Improvements), rep.MissingInNew)
		}
		if rep.Cells != len(base) {
			t.Errorf("mutating Record.%s changed cell identity: compared %d cells, want %d",
				f.Name, rep.Cells, len(base))
		}
		if configOnly[f.Name] {
			if len(rep.ConfigMismatches) == 0 {
				t.Errorf("mutating Record.%s should surface a config-mismatch warning", f.Name)
			}
		} else if len(rep.ConfigMismatches) != 0 {
			t.Errorf("mutating Record.%s produced config mismatches %v", f.Name, rep.ConfigMismatches)
		}
	}
}

// Command bench is the repository's benchmark. It runs five workloads
// over the simulator, the sweep harness, the result store, the farm and
// the checkpoint cache, checks that their outputs are right, and prints
// host-time metrics. BENCHMARK.json at the repository root declares the
// workloads, the metrics and their regression bounds; README.md explains
// them.
//
// Usage (from this directory):
//
//	go run .                                   every workload, each in a fresh child process
//	go run . -trace 1                          the traced pass: cost ladder and per-layer metrics
//	go run . -workload tage-hot -seconds 15    one workload in this process
//	go run . compare a.json b.json             paired comparison against the bounds
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; the line before it
// carries the same metrics with quartiles and sample counts.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one command line and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process, and print its result as the last line of stdout")
	seed := fs.Uint64("seed", 1, "input seed: 1 keeps the named traces' built-in streams; 2 is the holdout seed")
	seconds := fs.Int("seconds", 15, "seconds each workload measures for")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass (cost ladder and per-layer metrics) instead of the end-to-end measurement")
	out := fs.String("o", "", "without -workload: append the run to this JSON file (the input of compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, not %d\n", *traceFlag)
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	root := repoRoot()
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	traced := *traceFlag == 1
	if *name != "" {
		return child(*name, *seed, *seconds, traced, build, stdout, stderr)
	}
	if traced {
		return tracedSuite(*seed, *seconds, root, build, *out, stdout, stderr)
	}
	return suite(*seed, *seconds, *out, stdout, stderr)
}

// repoRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json (the working directory when none does).
func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		if filepath.Dir(dir) == dir {
			return wd
		}
	}
}

// metricVal is one metric as the result line carries it.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// detailLine precedes the result line: the same metrics with their
// spread, so compare can tell noise from movement.
type detailLine struct {
	Detail report `json:"detail"`
}

// child runs one workload (or, traced, the whole traced pass) in this
// process, prints the detail and result lines, and returns the exit code:
// 1 when an output check failed.
func child(name string, seed uint64, seconds int, traced bool, build string, stdout, stderr io.Writer) int {
	w, ok := lookupWorkload(name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (workloads: %s)\n", name, strings.Join(workloadNames(), ", "))
		return 2
	}
	var rep report
	var err error
	if traced {
		var tr tracedResult
		tr, err = tracedPass(seed, seconds, build, stderr)
		rep = tr.report
		rep.Workload = w.name
	} else {
		rep, err = measureIn(build, w, seed, seconds, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	for _, m := range rep.Mismatches {
		fmt.Fprintf(stderr, "bench: %s: MISMATCH %s\n", name, m)
	}
	d, err := json.Marshal(detailLine{rep})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	res, err := json.Marshal(rep.resultLine())
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", d, res)
	if !rep.Correct {
		return 1
	}
	return 0
}

// runFile is what suite mode appends to and compare reads: runs of the
// workloads, stamped with the host they ran on.
type runFile struct {
	Host host     `json:"host"`
	Runs []report `json:"runs"`
}

// host stamps a run file with where and from what it was measured.
type host struct {
	CPU       string `json:"cpu"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GitSHA    string `json:"git_sha"`
	GitDirty  bool   `json:"git_dirty"`
	Date      string `json:"date"`
}

func currentHost() host {
	prov := harness.CurrentProvenance()
	return host{
		CPU:       cpuModel(),
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		GitSHA:    prov.GitSHA,
		GitDirty:  prov.GitDirty,
		Date:      time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo (Linux), or
// falls back to the architecture.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// suite runs every workload, each in a fresh child process of this
// binary so that memory metrics and heap state are per workload, and
// prints one table row per workload and metric.
func suite(seed uint64, seconds int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var got []report
	code := 0
	for _, w := range workloads {
		rep, err := runChild(exe, w.name, seed, seconds, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		if !rep.Correct {
			code = 1
		}
		got = append(got, rep)
	}
	printReports(stdout, got)
	if out != "" {
		if err := appendRuns(out, got); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// runChild runs one workload in a child process and returns its report.
func runChild(exe, name string, seed uint64, seconds int, stderr io.Writer) (report, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	runErr := cmd.Run()
	rep, err := parseDetail(stdout.Bytes())
	if err != nil {
		if runErr != nil {
			return report{}, runErr
		}
		return report{}, err
	}
	return rep, nil
}

// parseDetail extracts the report from a single-workload run's stdout:
// the detail line just before the result line.
func parseDetail(out []byte) (report, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return report{}, errors.New("child printed no result")
	}
	var d detailLine
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &d); err != nil {
		return report{}, fmt.Errorf("child detail line: %w", err)
	}
	return d.Detail, nil
}

// tracedSuite runs the traced pass in this process and records the
// ladder under bench/results.
func tracedSuite(seed uint64, seconds int, root, build, out string, stdout, stderr io.Writer) int {
	tr, err := tracedPass(seed, seconds, build, stderr)
	rep := tr.report
	rep.Workload = "traced"
	if err == nil {
		h := currentHost()
		tr.ladder.Host = &h
		err = writeJSON(filepath.Join(root, "bench", "results", "ladder.json"), tr.ladder)
	}
	if err == nil && out != "" {
		err = appendRuns(out, []report{rep})
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: traced pass: %v\n", err)
		return 1
	}
	for _, m := range rep.Mismatches {
		fmt.Fprintf(stderr, "bench: traced: MISMATCH %s\n", m)
	}
	printReports(stdout, []report{rep})
	if !rep.Correct {
		return 1
	}
	return 0
}

// measureIn measures one workload with a scratch directory under build.
func measureIn(build string, w workloadDef, seed uint64, seconds int, log io.Writer) (report, error) {
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	return measure(w, newEnv(seed, dir, fullSizes), time.Duration(seconds)*time.Second, log)
}

// tracedPass runs the traced pass with a scratch directory under build
// and writes its spans to build/spans.json.
func tracedPass(seed uint64, seconds int, build string, log io.Writer) (tracedResult, error) {
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return tracedResult{}, err
	}
	defer os.RemoveAll(dir)
	tr, err := runTraced(newEnv(seed, dir, fullSizes), seconds, log)
	if err != nil {
		return tr, err
	}
	return tr, writeJSON(filepath.Join(build, "spans.json"), tr.spans)
}

// appendRuns adds reports to the run file at path, creating it (stamped
// with this host) when it does not exist yet.
func appendRuns(path string, reps []report) error {
	var f runFile
	switch data, err := os.ReadFile(path); {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case errors.Is(err, os.ErrNotExist):
		f.Host = currentHost()
	default:
		return err
	}
	f.Runs = append(f.Runs, reps...)
	return writeJSON(path, f)
}

// writeJSON writes v as indented JSON, creating the parent directory.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReports renders one line per workload and metric: the median, the
// quartiles and the sample count.
func printReports(w io.Writer, reps []report) {
	fmt.Fprintf(w, "%-13s %-34s %14s %14s %14s %4s  %s\n", "workload", "metric", "median", "q1", "q3", "n", "unit")
	for _, r := range reps {
		names := make([]string, 0, len(r.Stats))
		for n := range r.Stats {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := r.Stats[n]
			fmt.Fprintf(w, "%-13s %-34s %14.6g %14.6g %14.6g %4d  %s\n", r.Workload, n, s.Value, s.Q1, s.Q3, s.N, s.Unit)
		}
		status := "correct"
		if !r.Correct {
			status = "INCORRECT"
		}
		fmt.Fprintf(w, "%-13s %s (seed %d): %d attempted, %d failed\n", r.Workload, status, r.Seed, r.Attempted, r.Failed)
	}
}

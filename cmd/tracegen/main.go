// Command tracegen materialises workloads (benchmark names or trace
// specs), encodes them to the binary trace format, summarises trace
// files, and converts external text traces into the binary format.
//
// Usage:
//
//	tracegen -name INT01 -branches 1000000 -o int01.bpt
//	tracegen -name 'phased:period=4096#1' -branches 200000
//	tracegen -summarize int01.bpt
//	tracegen convert -format cbp -o gcc.bpt gcc-branches.txt
//	tracegen -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so the CLI's error
// paths are testable. Exit codes: 0 ok, 1 runtime error, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "convert" {
		return runConvert(args[1:], stdout, stderr)
	}

	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("name", "", "workload to generate: a benchmark name or a trace spec like 'phased:period=4096#1' (see -list)")
	branches := fs.Int("branches", 1000000, "branches to generate")
	out := fs.String("o", "", "output file (default: derived from the workload name)")
	summarize := fs.String("summarize", "", "trace file to summarise")
	list := fs.Bool("list", false, "list benchmark names and workload kinds")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *list:
		fmt.Fprintln(stdout, strings.Join(repro.TraceNames(), "\n"))
		fmt.Fprintln(stdout, "\nworkload kinds (use as -name specs):")
		for _, l := range workload.KindSummaries() {
			fmt.Fprintln(stdout, "  "+l)
		}
		return 0
	case *name != "" && *summarize != "":
		fmt.Fprintln(stderr, "tracegen: -name generates, -summarize reads; use one or the other")
		return 2
	case *summarize != "":
		f, err := os.Open(*summarize)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		tr, err := repro.ReadTrace(f)
		if err != nil {
			return fail(stderr, err)
		}
		printSummary(stdout, tr)
		return 0
	case *name != "":
		if *branches <= 0 {
			fmt.Fprintf(stderr, "tracegen: -branches must be positive, got %d\n", *branches)
			return 2
		}
		tr, err := repro.GenerateTrace(*name, *branches)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			fmt.Fprintln(stderr, "\nvalid benchmark names:")
			fmt.Fprintln(stderr, "  "+strings.Join(repro.TraceNames(), " "))
			fmt.Fprintln(stderr, "workload kinds (specs):")
			for _, l := range workload.KindSummaries() {
				fmt.Fprintln(stderr, "  "+l)
			}
			return 1
		}
		path := *out
		if path == "" {
			path = specFileName(*name) + ".bpt"
		}
		if err := writeTraceFile(path, tr); err != nil {
			return fail(stderr, err)
		}
		st := repro.SummarizeTrace(tr)
		fmt.Fprintf(stdout, "wrote %s: %d branches, %d µops, %d static branches\n",
			path, st.Branches, st.MicroOps, st.StaticBranches)
		return 0
	default:
		fs.Usage()
		return 2
	}
}

// runConvert ingests an external text trace (`tracegen convert -format
// cbp input.txt`) into the binary format.
func runConvert(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "cbp", "input format: "+strings.Join(repro.TraceConvertFormats(), " or "))
	name := fs.String("name", "", "trace name to embed (default: input file basename)")
	out := fs.String("o", "", "output file (default: input path with .bpt)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "tracegen convert: want exactly one input file, e.g. 'tracegen convert -format cbp branches.txt'")
		return 2
	}
	input := fs.Arg(0)
	if *name == "" {
		base := filepath.Base(input)
		*name = strings.TrimSuffix(base, filepath.Ext(base))
	}

	f, err := os.Open(input)
	if err != nil {
		return fail(stderr, err)
	}
	defer f.Close()
	tr, st, err := repro.ConvertTrace(f, *format, *name)
	if err != nil {
		return fail(stderr, err)
	}
	if st.Conditional == 0 {
		fmt.Fprintf(stderr, "tracegen convert: %s has no conditional branches (%d input lines; calls=%d returns=%d jumps=%d other=%d)\n",
			input, st.Lines, st.Calls, st.Returns, st.Jumps, st.Other)
		return 1
	}
	path := *out
	if path == "" {
		path = strings.TrimSuffix(input, filepath.Ext(input)) + ".bpt"
	}
	if err := writeTraceFile(path, tr); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "converted %s: %d lines -> %d conditional branches (skipped: %d calls, %d returns, %d jumps, %d other)\n",
		input, st.Lines, st.Conditional, st.Calls, st.Returns, st.Jumps, st.Other)
	printSummary(stdout, tr)
	fmt.Fprintf(stdout, "run it with: bpbench -traces 'file:%s'\n", path)
	return 0
}

// printSummary renders the branch-mix report shared by -summarize and
// convert: volume, footprint, direction mix and transition entropy, so
// a converted trace can be sanity-checked against its source.
func printSummary(w io.Writer, tr *repro.Trace) {
	st := repro.SummarizeTrace(tr)
	fmt.Fprintf(w, "name=%s category=%s branches=%d micro-ops=%d static=%d taken=%.1f%% top10-cover=%.1f%% transition-entropy=%.3f bits\n",
		tr.Name, tr.Category, st.Branches, st.MicroOps, st.StaticBranches,
		100*st.TakenFraction, 100*st.Top10Coverage, st.TransitionEntropy)
}

// specFileName sanitises a workload name into a filesystem-friendly
// stem: benchmark names lowercase as before; spec punctuation becomes
// dashes.
func specFileName(name string) string {
	s := strings.ToLower(name)
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') || r == '.' || r == '-' {
			b.WriteRune(r)
		} else {
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}

func writeTraceFile(path string, tr *repro.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := repro.WriteTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "tracegen:", err)
	return 1
}

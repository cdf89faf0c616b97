// Command bptables regenerates the paper's tables and figures
// (experiments E1..E15, see the internal/experiments registry), printing
// paper-vs-measured rows and the shape checks each experiment must
// satisfy. With -model it instead evaluates one arbitrary model spec
// over the whole 40-trace suite — the quick answer to "how would this
// point of the design space have scored in the paper's tables".
//
// Usage:
//
//	bptables                    # run every experiment at the default scale
//	bptables -exp E2,E11        # run a subset
//	bptables -branches 1000000  # full-scale run
//	bptables -markdown          # emit the reports as markdown sections
//	bptables -model 'tage:tables=9,hist=6:500'   # one spec, full suite
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	expFlag := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	branches := flag.Int("branches", 200000, "branches per trace")
	markdown := flag.Bool("markdown", false, "emit markdown instead of text")
	store := flag.String("store", "", "resumable JSONL result store for every experiment's sweep: interrupted runs continue, complete ones re-render for free")
	warm := flag.Bool("warm-cache", false, "keep a checkpoint blob cache next to -store (store + \".ckpt/\"): cells warm-start from cached snapshots and interrupted cells resume mid-trace (requires -store)")
	model := flag.String("model", "", "evaluate this model spec over the full suite instead of running experiments (scenario A)")
	verbose, quiet := cli.Verbosity(flag.CommandLine)
	flag.Parse()
	log := cli.NewLogger(os.Stderr, *verbose, *quiet)

	if *warm && *store == "" {
		log.Error("bptables: -warm-cache caches checkpoints next to the result store; set -store")
		os.Exit(2)
	}

	if *model != "" {
		if *expFlag != "" || *store != "" || *markdown {
			log.Error("bptables: -model runs a one-off suite evaluation (plain table only); drop -exp/-store/-markdown")
			os.Exit(2)
		}
		os.Exit(runModelSpec(*model, *branches, log))
	}

	cfg := repro.ExperimentConfig{BranchesPerTrace: *branches, ResultStore: *store, WarmCache: *warm}
	ids := repro.ExperimentIDs()
	if *expFlag != "" {
		ids = strings.Split(*expFlag, ",")
	}

	failures := 0
	start := time.Now()
	for _, id := range ids {
		t0 := time.Now()
		log.Debug(fmt.Sprintf("bptables: running experiment %s", strings.TrimSpace(id)))
		rep, ok := repro.RunExperiment(strings.TrimSpace(id), cfg)
		if !ok {
			log.Error(fmt.Sprintf("bptables: unknown experiment %q", id))
			failures++
			continue
		}
		if *markdown {
			experiments.RenderMarkdown(os.Stdout, rep)
		} else {
			repro.RenderReport(os.Stdout, rep)
			fmt.Printf("   (%.1fs)\n", time.Since(t0).Seconds())
		}
		if !rep.Passed() {
			failures++
		}
	}
	fmt.Printf("# total %.1fs, %d experiment(s) with failing shape checks\n",
		time.Since(start).Seconds(), failures)
	if failures > 0 {
		os.Exit(1)
	}
}

// runModelSpec evaluates one model spec across the whole benchmark
// suite through the harness (scenario A, the paper's default reporting
// scenario) and prints the per-trace table with its aggregates.
func runModelSpec(spec string, branches int, log *slog.Logger) int {
	m, err := repro.NewBenchMatrix([]string{spec}, nil, "A", []int{branches})
	if err != nil {
		log.Error(fmt.Sprintf("bptables: %v", err))
		return 2
	}
	canon := m.Models[0].Spec
	fmt.Printf("# model=%s storage=%dKbit branches/trace=%d\n",
		canon, m.Models[0].StorageBits/1024, branches)
	sink, err := repro.NewBenchSink("table", os.Stdout)
	if err != nil {
		log.Error(fmt.Sprintf("bptables: %v", err))
		return 2
	}
	sum, err := repro.RunBench(m, repro.BenchConfig{}, sink)
	if err != nil {
		log.Error(fmt.Sprintf("bptables: %v", err))
		return 2
	}
	if sum.Failed > 0 {
		log.Error(fmt.Sprintf("bptables: %d of %d cells failed", sum.Failed, sum.Jobs))
		return 1
	}
	return 0
}

// Command bpsim runs a branch predictor over synthetic benchmark traces
// and reports accuracy and access statistics. -model accepts any model
// spec: a named model or a parameterised configuration (see the README
// "Model specs" section).
//
// Usage:
//
//	bpsim -model tage-lsc -scenario A -branches 1000000 [-trace INT01]
//	bpsim -model 'tage:tables=9,hist=6:500' -scenario A
//	bpsim -model 'composed:tage+ium+lsc@+2' -scenario C
//	bpsim -list
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/workload"
)

// resolve maps the -model and -scenario flag values to a Model and a
// Scenario through the shared parsers (the scenario mapping bpbench
// uses), so flag handling is testable without running main.
func resolve(model, scenario string) (*repro.Model, repro.Scenario, error) {
	m, err := repro.LookupModel(model)
	if err != nil {
		return nil, 0, err
	}
	scs, err := harness.ParseScenarios(scenario)
	if err != nil {
		return nil, 0, err
	}
	if len(scs) != 1 {
		return nil, 0, fmt.Errorf("repro: want exactly one scenario, got %q", scenario)
	}
	return m, scs[0], nil
}

func main() {
	model := flag.String("model", "tage", "predictor model spec: a named model or kind:key=value,... (see -list)")
	scenario := flag.String("scenario", "A", "update scenario: I, A, B or C")
	traceName := flag.String("trace", "", "single workload to run: a benchmark name or trace spec like 'phased:period=4096#1' (default: all 40 benchmarks)")
	branches := flag.Int("branches", 500000, "branches per trace")
	window := flag.Int("window", 24, "in-flight branch window")
	cellPar := flag.Int("cell-par", 1, "run traces across this many goroutines (deterministic: per-trace results are byte-identical to a serial run)")
	ckPath := flag.String("checkpoint", "", "checkpoint blob file for a single-trace run: resume from it when present, keep the latest simulation checkpoint in it while running (requires -trace)")
	list := flag.Bool("list", false, "list models and traces, then exit")
	verbose, quiet := cli.Verbosity(flag.CommandLine)
	flag.Parse()
	log := cli.NewLogger(os.Stderr, *verbose, *quiet)

	if *cellPar < 1 {
		log.Error(fmt.Sprintf("bpsim: -cell-par must be >= 1 (got %d)", *cellPar))
		os.Exit(2)
	}
	if *ckPath != "" && *traceName == "" {
		log.Error("bpsim: -checkpoint snapshots one simulation; name the trace with -trace")
		os.Exit(2)
	}

	if *list {
		fmt.Println("models: ", strings.Join(repro.ModelNames(), " "))
		fmt.Println("traces: ", strings.Join(repro.TraceNames(), " "))
		fmt.Println("workload kinds:")
		for _, l := range workload.KindSummaries() {
			fmt.Println("  " + l)
		}
		return
	}

	m, sc, err := resolve(*model, *scenario)
	if err != nil {
		log.Error(fmt.Sprintf("bpsim: %v (try -list)", err))
		os.Exit(1)
	}
	fmt.Printf("# model=%s storage=%dKbit scenario=%s branches/trace=%d\n",
		m.Name(), m.StorageBits()/1024, sc, *branches)

	if *ckPath != "" {
		// One trace has nothing to schedule: run the model directly, so
		// the resume outcome is visible. Resume from an earlier checkpoint
		// when one is on disk (a blob the simulator cannot use — wrong
		// model, wrong pipeline — is reported and the run falls back to a
		// cold start), and keep the file pointing at the latest checkpoint
		// while running, so a killed long run continues mid-trace next
		// time.
		tr, err := repro.GenerateTrace(*traceName, *branches)
		if err != nil {
			log.Error(fmt.Sprintf("bpsim: %v", err))
			os.Exit(1)
		}
		opt := repro.Options{Scenario: sc, Window: *window, CheckpointEvery: 1_000_000}
		if blob, err := os.ReadFile(*ckPath); err == nil {
			opt.Resume = &repro.Checkpoint{Blob: blob}
		}
		opt.OnCheckpoint = func(blob []byte, at uint64) {
			tmp := *ckPath + ".tmp"
			if err := os.WriteFile(tmp, blob, 0o644); err != nil {
				log.Warn(fmt.Sprintf("bpsim: -checkpoint: %v", err))
				return
			}
			if err := os.Rename(tmp, *ckPath); err != nil {
				os.Remove(tmp)
				log.Warn(fmt.Sprintf("bpsim: -checkpoint: %v", err))
			}
		}
		res := m.Run(tr, opt)
		if res.ResumeErr != nil {
			log.Warn(fmt.Sprintf("bpsim: checkpoint unusable, ran cold: %v", res.ResumeErr))
		} else if res.ResumedAt > 0 {
			log.Info(fmt.Sprintf("bpsim: %s resumed from checkpoint at branch %d", res.Trace, res.ResumedAt))
		}
		printTrace(res.Trace, res.MPKI, res.MPPKI, res.Misprediction, res.Access)
		return
	}

	// Every trace is one harness cell: -cell-par of them simulate at once
	// on pooled predictors, and the lines stream out in suite order. Each
	// trace is read by one cell, so the harness drops it once that cell
	// finishes.
	var traces []string
	if *traceName != "" {
		traces = []string{*traceName}
	}
	bm, err := repro.NewBenchMatrix([]string{*model}, traces, *scenario, []int{*branches})
	if err != nil {
		log.Error(fmt.Sprintf("bpsim: %v", err))
		os.Exit(1)
	}
	bm.Window = *window
	log.Debug(fmt.Sprintf("bpsim: running %d trace(s) of %d branches", len(bm.Traces), *branches))
	suite := &suitePrinter{log: log}
	sum, err := repro.RunBench(bm, repro.BenchConfig{Parallelism: *cellPar, NoAggregates: true}, suite)
	if err != nil {
		log.Error(fmt.Sprintf("bpsim: %v", err))
		os.Exit(1)
	}
	if sum.Failed > 0 {
		os.Exit(1)
	}
	if sum.Jobs > 1 {
		fmt.Printf("# suite: MPKI-sum=%.1f MPPKI-sum=%.0f silent-updates=%.1f%% writes/100br=%.2f\n",
			suite.mpki, suite.mppki, 100*suite.access.SilentFraction(), suite.access.WritesPer100Branches())
	}
}

// printTrace prints one trace's result line.
func printTrace(name string, mpki, mppki, mispredictRate float64, acc repro.AccessStats) {
	fmt.Printf("%-10s MPKI=%7.3f MPPKI=%8.2f mispredict=%5.2f%% accesses/branch=%.3f\n",
		name, mpki, mppki, 100*mispredictRate, acc.AccessesPerBranch())
}

// suitePrinter is the run's sink: it prints each trace's line as its cell
// arrives (in suite order) and sums the suite totals in that order.
type suitePrinter struct {
	log         *slog.Logger
	mpki, mppki float64
	access      repro.AccessStats
}

func (p *suitePrinter) Emit(r repro.BenchRecord) error {
	if r.Failed() {
		p.log.Error(fmt.Sprintf("bpsim: %s: %s", r.Trace, r.Err))
		return nil
	}
	printTrace(r.Trace, r.MPKI, r.MPPKI, r.Misprediction, r.Access)
	p.mpki += r.MPKI
	p.mppki += r.MPPKI
	p.access.Add(r.Access)
	return nil
}

func (p *suitePrinter) Close() error { return nil }

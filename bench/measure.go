package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// A run sets its workload up at least minSetups times, and more until
	// setupBudget has passed or maxSetups is reached, so that even a
	// set-up of a few milliseconds gets enough samples for a steady
	// median.
	minSetups   = 7
	maxSetups   = 64
	setupBudget = 500 * time.Millisecond
	// minReps is the fewest timed reps a run makes, however short its
	// time budget.
	minReps = 3
)

// sizes fixes the input lengths of every workload. The full profile is
// what end-to-end runs and the traced pass measure. Its reps last about
// a second at most, so that a run makes ten reps or more and its median
// does not hang on a few reps slowed by other tenants of the host. The
// tiny profile keeps the test suite fast. Each profile has its own
// recorded fingerprints.
type sizes struct {
	profile   string
	hot       int    // tage-hot branches per trace
	tables    int    // paper-tables branches per trace
	fig9      int    // fig9-sweep branches per trace
	farm      int    // farm branches per trace
	farmSeeds int    // farm: derived seeds per generator kind
	warm      int    // warm-restart branches per trace
	warmEvery uint64 // warm-restart checkpoint interval in branches
	ladder    int    // traced pass: ladder branches per trace
}

var (
	fullSizes = sizes{profile: "full", hot: 250_000, tables: 1000, fig9: 2000, farm: 2000, farmSeeds: 8,
		warm: 50_000, warmEvery: 10_000, ladder: 50_000}
	tinySizes = sizes{profile: "tiny", hot: 4000, tables: 200, fig9: 200, farm: 200, farmSeeds: 2,
		warm: 4000, warmEvery: 1000, ladder: 2000}
)

// env is what a workload is set up from.
type env struct {
	seed uint64
	dir  string // scratch directory for stores and checkpoint caches
	sz   sizes
	// par is the harness parallelism of the two-worker workloads,
	// capped by the host's processors.
	par int
}

func newEnv(seed uint64, dir string, sz sizes) *env {
	return &env{seed: seed, dir: dir, sz: sz, par: min(2, runtime.NumCPU())}
}

// stat is one metric of a run: the median of its samples, their
// quartiles (as Python's statistics.quantiles computes them) and the
// sample count.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func newStat(samples []float64, unit string) stat {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return stat{Value: median(s), Unit: unit, Q1: q1, Q3: q3, N: len(s)}
}

// median of sorted values.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted values by the "exclusive" method, the default of
// Python's statistics.quantiles(values, n=4).
func quartiles(s []float64) (q1, q3 float64) {
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// report is the outcome of one run: its metrics with their spread and
// whether every output check held.
type report struct {
	Workload   string          `json:"workload"`
	Seed       uint64          `json:"seed"`
	Traced     bool            `json:"traced,omitempty"`
	Correct    bool            `json:"correct"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Stats      map[string]stat `json:"metrics"`
	Mismatches []string        `json:"mismatches,omitempty"`
}

func (r report) resultLine() resultLine {
	m := make(map[string]metricVal, len(r.Stats))
	for name, s := range r.Stats {
		m[name] = metricVal{Value: s.Value, Unit: s.Unit}
	}
	return resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: m}
}

// End-to-end metric names, as BENCHMARK.json declares them.
const (
	metricSetup = "setup_s"
	metricWall  = "wall_s"
	metricRSS   = "max_rss_mb"
	metricAlloc = "alloc_mb"
)

// measure runs one workload end to end: it sets the workload up several
// times, runs one untimed warm-up rep, then timed reps until
// budget has passed (at least minReps), checking every rep's outputs.
func measure(w workloadDef, e *env, budget time.Duration, log io.Writer) (report, error) {
	rep := report{Workload: w.name, Seed: e.seed}
	var setups []float64
	var inst instance
	var spent time.Duration
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		start := time.Now()
		in, err := w.setup(e)
		took := time.Since(start)
		if err != nil {
			return rep, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
		spent += took
		inst = in
	}
	defer inst.close()

	debug.FreeOSMemory()
	first, err := runRep(inst, nil)
	if err != nil {
		return rep, fmt.Errorf("warm-up rep: %w", err)
	}
	mism := append(first.mismatches, checkFingerprint(e, w.name, first.fingerprint)...)
	var walls, allocs, peaks []float64
	deadline := time.Now().Add(budget)
	for n := 1; n <= minReps || time.Now().Before(deadline); n++ {
		// Collect the previous rep's garbage and return freed memory to
		// the OS first, so each rep starts from the same heap and its
		// peak RSS does not depend on how much of the last rep's memory
		// the scavenger happened to release.
		debug.FreeOSMemory()
		resetPeakRSS()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := inst.rep(nil)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		peak, peakErr := peakRSSMiB()
		if out.cleanup != nil {
			out.cleanup()
		}
		if err != nil {
			return rep, fmt.Errorf("rep %d: %w", n, err)
		}
		if peakErr != nil {
			return rep, peakErr
		}
		walls = append(walls, wall.Seconds())
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		peaks = append(peaks, peak)
		rep.Attempted += out.attempted
		rep.Failed += out.failed
		mism = append(mism, out.mismatches...)
		if out.fingerprint != first.fingerprint {
			mism = append(mism, fmt.Sprintf("rep %d: outputs (fingerprint %s) differ from the warm-up rep's (%s)", n, out.fingerprint, first.fingerprint))
		}
	}
	mism = append(mism, inst.check()...)
	// A rep's peak RSS is its live memory plus however much garbage the
	// collector let pile up first, which with two workers allocating
	// depends on timing: on paper-tables the per-rep peaks fall near
	// 100 MiB or near 150 MiB, and the median flips between the two. The
	// lowest peak is bounded below by the live memory, and repeats.
	rss := newStat(peaks, "MiB")
	rss.Value = slices.Min(peaks)
	rep.Stats = map[string]stat{
		metricSetup: newStat(setups, "s"),
		metricWall:  newStat(walls, "s"),
		metricRSS:   rss,
		metricAlloc: newStat(allocs, "MiB"),
	}
	rep.Mismatches = mism
	rep.Correct = len(mism) == 0 && rep.Failed == 0
	fmt.Fprintf(log, "bench: %s seed %d: %d reps, wall %.4gs median, setup %.4gs, %d/%d failed\n",
		w.name, e.seed, len(walls), rep.Stats[metricWall].Value, rep.Stats[metricSetup].Value, rep.Failed, rep.Attempted)
	return rep, nil
}

// runRep runs one rep and releases what it left behind.
func runRep(inst instance, sc *scope) (repOut, error) {
	out, err := inst.rep(sc)
	if out.cleanup != nil {
		out.cleanup()
	}
	return out, err
}

// resetPeakRSS asks Linux (4.0 and later) to forget this process's peak
// resident set size, so that the next peakRSSMiB covers one rep. The peak
// of a whole process is the largest of many reps, an extreme that moves
// with garbage-collection timing; the median of per-rep peaks repeats.
// If the kernel refuses, peakRSSMiB reads the process's peak so far.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	f.WriteString("5") // see the comment above: a refused reset is tolerated
}

// peakRSSMiB reads the peak resident set size (VmHWM, in KiB) of this
// process from /proc/self/status.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

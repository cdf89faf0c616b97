package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

// FuzzLeaseWire: a worker decodes whatever a coordinator answers as a
// Lease and rebuilds each wire job through the model resolver the CLIs
// use. For arbitrary bytes that must never panic, and every job that
// rebuilds must carry its wire job's cell key — a completion is matched
// to its cell by that key, so a job that rebuilt under another key would
// bounce between expiry and re-grant forever instead of failing once.
// Specs resolve without building a predictor, so even a wire job naming
// tage@+30 costs nothing here. Jobs on file: traces are skipped: those
// read the worker's filesystem by design.
func FuzzLeaseWire(f *testing.F) {
	lease := farmLease(f)
	f.Add(lease)
	variant := func(edit func(*harness.Lease)) {
		var l harness.Lease
		if err := json.Unmarshal(lease, &l); err != nil {
			f.Fatal(err)
		}
		edit(&l)
		data, err := json.Marshal(l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	variant(func(l *harness.Lease) { l.Jobs[0].Model, l.Jobs[0].Spec = "tage@+30", "tage@+30" })
	// A scenario ParseScenarios accepts but that is not the canonical
	// letter used to rebuild the cell under another key.
	variant(func(l *harness.Lease) { l.Jobs[1].Scenario = "c" })
	resolve := BenchResolver()
	f.Fuzz(func(t *testing.T, data []byte) {
		var lease harness.Lease
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&lease); err != nil {
			return
		}
		for _, wj := range lease.Jobs {
			src := wj.TraceSpec
			if src == "" {
				src = wj.Trace
			}
			if ts, err := workload.ParseTraceSpec(src); err == nil && ts.IsFile() {
				continue
			}
			j, err := wj.Job(resolve)
			if err != nil {
				continue
			}
			if j.Key() != wj.Key() {
				t.Fatalf("wire job %+v rebuilt as cell %q, want %q", wj, j.Key(), wj.Key())
			}
		}
	})
}

// farmLease returns the JSON of the first lease a coordinator grants for
// a sweep shaped like the benchmark's farm: tage and gshare over
// generator traces, scenarios A and C.
func farmLease(f *testing.F) []byte {
	m, err := NewBenchMatrix([]string{"tage", "gshare"}, []string{"loopy:#1", "phased:#2", "mix:loopy=1,callret=1,datadep=1#3"}, "A,C", []int{2000})
	if err != nil {
		f.Fatal(err)
	}
	jobs, err := m.Expand()
	if err != nil {
		f.Fatal(err)
	}
	queue := harness.NewLeaseQueue(0, 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sched := &harness.LeaseScheduler{Queue: queue, Ctx: ctx}
		sched.Schedule(jobs, BenchConfig{}, func(BenchRecord) {})
	}()
	lease := queue.Acquire("fuzz-seed", 5*time.Second)
	cancel()
	<-done
	if lease == nil {
		f.Fatal("the queue granted no lease")
	}
	data, err := json.Marshal(lease)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

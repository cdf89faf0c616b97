package harness

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/composed"
	"repro/internal/gshare"
	"repro/internal/metrics"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
)

func clearRecTiming(recs []Record) {
	for i := range recs {
		recs[i].ElapsedSec = 0
		recs[i].BranchesPerSec = 0
	}
}

// TestWarmCacheByteIdentical is the repeated-sweep contract: a matrix
// run with a warm cache produces records identical (modulo wall-clock
// telemetry) whether the cache is empty (cold pass, all misses) or
// populated by the previous pass (warm pass, all hits skipping every
// cell's already-simulated prefix).
func TestWarmCacheByteIdentical(t *testing.T) {
	models := []Model{
		{Name: "gshare12", Spec: "gshare:12", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
			return sim.Pooled(gshare.New(12))(tr, opt)
		}},
		{Name: "tage", Spec: "tage:ref", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
			return sim.Pooled(tage.New(tage.Reference()))(tr, opt)
		}},
	}
	m := testMatrix(t, models, []string{"INT01", "MM05"},
		[]predictor.Scenario{predictor.ScenarioA, predictor.ScenarioC}, []int{5000})
	dir := WarmCacheDir(t.TempDir() + "/store.jsonl")

	pass := func() ([]Record, metrics.Snapshot) {
		reg := metrics.NewRegistry()
		sink := &collectSink{}
		cfg := Config{Parallelism: 2, WarmCache: dir, CheckpointEvery: 1500, Metrics: reg}
		if _, err := Run(m, cfg, sink); err != nil {
			t.Fatal(err)
		}
		clearRecTiming(sink.recs)
		return sink.recs, reg.Snapshot()
	}

	cold, coldSnap := pass()
	if hits, _ := coldSnap.Sample(MetricWarmCacheHits); hits.Value != 0 {
		t.Fatalf("cold pass reported %v warm hits, want 0", hits.Value)
	}
	if misses, _ := coldSnap.Sample(MetricWarmCacheMisses); misses.Value != 8 {
		t.Fatalf("cold pass reported %v warm misses, want 8 (every cell)", misses.Value)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("blob cache dir after cold pass: entries=%d err=%v", len(ents), err)
	}

	warm, warmSnap := pass()
	if hits, _ := warmSnap.Sample(MetricWarmCacheHits); hits.Value != 8 {
		t.Fatalf("warm pass reported %v warm hits, want 8 (every cell)", hits.Value)
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm pass emitted %d records, cold %d", len(warm), len(cold))
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Errorf("record %d diverges:\n  cold: %+v\n  warm: %+v", i, cold[i], warm[i])
		}
	}
}

// TestWarmCacheResumesInterruptedCell is the interrupted-cell contract:
// a cell killed mid-trace leaves its latest periodic checkpoint in the
// cache, and the re-run resumes from it — demonstrably mid-trace, not
// branch 0 — while producing the exact cold-run record. A mid-trace
// blob carries the in-flight window, so the composed stacks put their
// loop, SC, LSC and IUM contexts through the cache as well as their
// sections.
func TestWarmCacheResumesInterruptedCell(t *testing.T) {
	kinds := []struct {
		name string
		mk   func() func(tr *trace.Trace, opt sim.Options) sim.Result
	}{
		{"tage", func() func(tr *trace.Trace, opt sim.Options) sim.Result {
			return sim.Pooled(tage.New(tage.Reference()))
		}},
		{"tage-lsc", func() func(tr *trace.Trace, opt sim.Options) sim.Result {
			return sim.Pooled(composed.New(composed.TAGELSC(composed.Budget512K(), "TAGE-LSC")))
		}},
		{"isl-tage", func() func(tr *trace.Trace, opt sim.Options) sim.Result {
			return sim.Pooled(composed.New(composed.ISLTAGE(tage.Reference(), "ISL-TAGE")))
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) { resumeInterruptedCell(t, k.name, k.mk) })
	}
}

func resumeInterruptedCell(t *testing.T, spec string, mk func() func(tr *trace.Trace, opt sim.Options) sim.Result) {
	mkModel := func(interrupt bool, resumedAt *uint64) Model {
		return Model{Name: spec, Spec: spec, Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
			if interrupt {
				// Die right after the first periodic checkpoint lands on
				// disk, like a process killed mid-cell.
				inner := opt.OnCheckpoint
				opt.OnCheckpoint = func(blob []byte, at uint64) {
					inner(blob, at)
					panic("interrupted mid-trace")
				}
			}
			res := mk()(tr, opt)
			if resumedAt != nil {
				*resumedAt = res.ResumedAt
			}
			return res
		}}
	}
	scs := []predictor.Scenario{predictor.ScenarioA}
	lengths := []int{8000}
	dir := WarmCacheDir(t.TempDir() + "/store.jsonl")
	cfg := Config{Parallelism: 1, WarmCache: dir, CheckpointEvery: 3000}

	// Reference: uninterrupted cold run without any cache.
	refSink := &collectSink{}
	if _, err := Run(testMatrix(t, []Model{mkModel(false, nil)}, []string{"INT01"}, scs, lengths),
		Config{Parallelism: 1}, refSink); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the cell fails, but its checkpoint survived.
	intSink := &collectSink{}
	sum, err := Run(testMatrix(t, []Model{mkModel(true, nil)}, []string{"INT01"}, scs, lengths), cfg, intSink)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 {
		t.Fatalf("interrupted run failed %d cells, want 1", sum.Failed)
	}

	// Re-run: must warm-start from the interrupted cell's checkpoint.
	var resumedAt uint64
	reSink := &collectSink{}
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	if _, err := Run(testMatrix(t, []Model{mkModel(false, &resumedAt)}, []string{"INT01"}, scs, lengths), cfg, reSink); err != nil {
		t.Fatal(err)
	}
	if resumedAt == 0 {
		t.Fatal("re-run started from branch 0; want resume from the interrupted cell's checkpoint")
	}
	if hits, _ := reg.Snapshot().Sample(MetricWarmCacheHits); hits.Value != 1 {
		t.Fatalf("re-run warm hits = %v, want 1", hits.Value)
	}
	clearRecTiming(refSink.recs)
	clearRecTiming(reSink.recs)
	if len(reSink.recs) != len(refSink.recs) {
		t.Fatalf("re-run emitted %d records, reference %d", len(reSink.recs), len(refSink.recs))
	}
	for i := range refSink.recs {
		if reSink.recs[i] != refSink.recs[i] {
			t.Errorf("record %d diverges from uninterrupted run:\n  resumed: %+v\n  cold:    %+v",
				i, reSink.recs[i], refSink.recs[i])
		}
	}
}

// TestWarmCacheFrameIdentity pins the file format: a saved frame is
// byte-identical to the warmcache section written field by field through
// an Encoder over the same key, position and blob, so caches written by
// earlier binaries keep loading as hits; and load hands back exactly the
// blob and position that were saved.
func TestWarmCacheFrameIdentity(t *testing.T) {
	wc := newWarmCache(t.TempDir(), nil, nil)
	blobs := map[string][]byte{
		"empty": nil,
		"short": []byte("blob"),
		"long":  bytes.Repeat([]byte{0xa5, 0x00, 0x5a}, 70000),
	}
	for name, blob := range blobs {
		t.Run(name, func(t *testing.T) {
			key := "tage-lsc@+2|00000000deadbeef|A|w0|d0|p0|" + name
			at := uint64(len(blob))*7 + 3
			wc.save(key, blob, at)

			enc := checkpoint.NewEncoder()
			enc.Begin(warmCacheSection, 1)
			enc.String(key)
			enc.U64(at)
			enc.Bytes(blob)
			enc.End()
			got, err := os.ReadFile(wc.path(key))
			if err != nil {
				t.Fatal(err)
			}
			if want := enc.Blob(); !bytes.Equal(got, want) {
				t.Fatalf("saved frame (%d bytes) differs from the field-by-field frame (%d bytes)", len(got), len(want))
			}

			ck := wc.load(key)
			if ck == nil {
				t.Fatal("load missed a frame save just wrote")
			}
			if ck.At != at || !bytes.Equal(ck.Blob, blob) {
				t.Fatalf("load returned at=%d and a %d-byte blob, want at=%d and the %d-byte blob saved", ck.At, len(ck.Blob), at, len(blob))
			}
			if wc.load(key+"-other") != nil {
				t.Fatal("load of an unsaved key hit")
			}
		})
	}
}

// TestWarmCacheWriteErrorsCounted: a cache directory that stops
// accepting writes (read-only, full, replaced by a file) must show up
// in bpbench_warm_cache_write_errors_total — and log once — instead of
// silently degrading every future run to cold starts.
func TestWarmCacheWriteErrorsCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	rm := newRunMetrics(reg)
	var logBuf syncBuffer
	log := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	wc := newWarmCache(t.TempDir(), rm, log)
	if wc == nil {
		t.Fatal("newWarmCache returned nil for a good directory")
	}

	// Break the directory out from under the cache: CreateTemp now
	// fails on every save.
	broken := filepath.Join(t.TempDir(), "notadir")
	if err := os.WriteFile(broken, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	wc.dir = broken

	wc.save("cell-a", []byte("blob"), 1)
	wc.save("cell-b", []byte("blob"), 2)
	if got, _ := reg.Snapshot().Sample(MetricWarmCacheWriteErrors); got.Value != 2 {
		t.Fatalf("write-error counter = %v, want 2", got.Value)
	}
	if n := strings.Count(logBuf.String(), "warm cache writes failing"); n != 1 {
		t.Fatalf("write failure logged %d times, want exactly once:\n%s", n, logBuf.String())
	}

	// A nil logger (library embedding) and nil metrics stay safe.
	quiet := newWarmCache(t.TempDir(), nil, nil)
	quiet.dir = broken
	quiet.save("cell-c", []byte("blob"), 3)
}

// syncBuffer is a mutex-guarded bytes.Buffer for handlers that may log
// from worker goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

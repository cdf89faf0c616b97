package harness

import (
	"bytes"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"weak"

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

// TestWarmRerunRewritesNoBlob: a warm pass over complete cells writes
// nothing. Each cell resumes at the end of its trace, re-encodes the
// blob it resumed from byte for byte, and leaves the file alone, so
// every blob keeps its inode, size and mtime while the records equal the
// cold pass's. A blob the simulator refuses (its frame intact, the blob
// inside it truncated) is replaced by its cold run's in the same pass.
func TestWarmRerunRewritesNoBlob(t *testing.T) {
	models := []Model{
		{Name: "gshare12", Spec: "gshare:12", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
			return sim.Pooled(gshare.New(12))(tr, opt)
		}},
		{Name: "tage-lsc", Spec: "tage-lsc", Run: func(tr *trace.Trace, opt sim.Options) sim.Result {
			return sim.Pooled(composed.New(composed.TAGELSC(composed.Budget512K(), "TAGE-LSC")))(tr, opt)
		}},
	}
	m := testMatrix(t, models, []string{"INT01", "MM05"},
		[]predictor.Scenario{predictor.ScenarioA, predictor.ScenarioC}, []int{5000})
	dir := WarmCacheDir(t.TempDir() + "/store.jsonl")
	pass := func() ([]Record, float64) {
		reg := metrics.NewRegistry()
		sink := &collectSink{}
		cfg := Config{Parallelism: 2, WarmCache: dir, CheckpointEvery: 1500, Metrics: reg}
		if _, err := Run(m, cfg, sink); err != nil {
			t.Fatal(err)
		}
		clearRecTiming(sink.recs)
		hits, _ := reg.Snapshot().Sample(MetricWarmCacheHits)
		return sink.recs, hits.Value
	}
	blobs := func() map[string]os.FileInfo {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]os.FileInfo, len(ents))
		for _, e := range ents {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = fi
		}
		return out
	}
	sameRecords := func(what string, got, want []Record) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s records diverge from the cold pass's:\n  got:  %+v\n  want: %+v", what, got, want)
		}
	}

	cold, _ := pass()
	before := blobs()
	if len(before) != 8 {
		t.Fatalf("cold pass left %d blobs, want 8 (one per cell)", len(before))
	}
	warm, hits := pass()
	sameRecords("warm pass", warm, cold)
	if hits != 8 {
		t.Fatalf("warm pass reported %v hits, want 8", hits)
	}
	after := blobs()
	if len(after) != len(before) {
		t.Fatalf("warm pass left %d files, cold pass %d", len(after), len(before))
	}
	for name, b := range before {
		a, ok := after[name]
		if !ok || !os.SameFile(a, b) || a.Size() != b.Size() || !a.ModTime().Equal(b.ModTime()) {
			t.Errorf("warm pass rewrote %s", name)
		}
	}

	// Re-frame one blob around the first half of its simulator blob.
	victim := slices.Min(slices.Collect(maps.Keys(before)))
	path := filepath.Join(dir, victim)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := checkpoint.NewDecoder(orig)
	dec.Open(warmCacheSection, 1)
	key, at, inner := dec.String(), dec.U64(), dec.Bytes()
	dec.Close()
	if dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	wc := newWarmCache(dir, nil, nil)
	wc.save(key, inner[:len(inner)/2], at, new(checkpoint.Encoder))

	refused, hits := pass()
	sameRecords("pass over a refused blob", refused, cold)
	if hits != 7 {
		t.Fatalf("pass over one refused blob reported %v hits, want 7", hits)
	}
	final := blobs()
	for name, b := range before {
		switch {
		case name == victim:
			// The file system may hand the replacement the truncated
			// frame's inode again, so compare contents.
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, orig) {
				t.Errorf("the refused blob %s was not replaced by its cold run's (err %v)", name, err)
			}
		case !os.SameFile(final[name], b):
			t.Errorf("pass over a refused blob rewrote %s too", name)
		}
	}
}

// TestWarmCacheLoadReusesBuffer: a worker reads every frame into the one
// buffer it keeps, so once a load has grown it, a load of a frame no
// larger allocates almost nothing: no buffer, only the file handle and
// the decoder.
func TestWarmCacheLoadReusesBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	wc := newWarmCache(t.TempDir(), nil, nil)
	var hdr checkpoint.Encoder
	big := bytes.Repeat([]byte{0x5a}, 300<<10)
	small := bytes.Repeat([]byte{0xa5}, 100<<10)
	wc.save("big", big, 1, &hdr)
	wc.save("small", small, 2, &hdr)

	var frame []byte
	if ck := wc.load("big", &frame); ck == nil || !bytes.Equal(ck.Blob, big) {
		t.Fatal("first load missed or returned the wrong blob")
	}
	first := &frame[0]
	const loads = 20
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for range loads {
		if ck := wc.load("small", &frame); ck == nil || ck.At != 2 || !bytes.Equal(ck.Blob, small) {
			t.Fatal("load into a kept buffer missed or returned the wrong blob")
		}
	}
	runtime.ReadMemStats(&ms1)
	if per := (ms1.TotalAlloc - ms0.TotalAlloc) / loads; per >= 4<<10 {
		t.Errorf("a load into a grown buffer allocated %d bytes, want under 4 KiB", per)
	}
	if &frame[0] != first {
		t.Error("a load of a smaller frame replaced the worker's buffer")
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
			wc.save(key, blob, at, new(checkpoint.Encoder))

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

			ck := wc.load(key, new([]byte))
			if ck == nil {
				t.Fatal("load missed a frame save just wrote")
			}
			if ck.At != at || !bytes.Equal(ck.Blob, blob) {
				t.Fatalf("load returned at=%d and a %d-byte blob, want at=%d and the %d-byte blob saved", ck.At, len(ck.Blob), at, len(blob))
			}
			if wc.load(key+"-other", new([]byte)) != nil {
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

	wc.save("cell-a", []byte("blob"), 1, new(checkpoint.Encoder))
	wc.save("cell-b", []byte("blob"), 2, new(checkpoint.Encoder))
	if got, _ := reg.Snapshot().Sample(MetricWarmCacheWriteErrors); got.Value != 2 {
		t.Fatalf("write-error counter = %v, want 2", got.Value)
	}
	if n := strings.Count(logBuf.String(), "warm cache writes failing"); n != 1 {
		t.Fatalf("write failure logged %d times, want exactly once:\n%s", n, logBuf.String())
	}

	// A nil logger (library embedding) and nil metrics stay safe.
	quiet := newWarmCache(t.TempDir(), nil, nil)
	quiet.dir = broken
	quiet.save("cell-c", []byte("blob"), 3, new(checkpoint.Encoder))
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

// TestWarmCacheKeepsNoTraces: keying checkpoints by trace content must
// not pin the traces. Without the trace cache every cell regenerates its
// trace, and each cell finds every earlier cell's trace collected.
func TestWarmCacheKeepsNoTraces(t *testing.T) {
	var earlier []weak.Pointer[trace.Trace]
	mdl := fakeModel("m", flat(1))
	run := mdl.Run
	mdl.Run = func(tr *trace.Trace, opt sim.Options) sim.Result {
		runtime.GC()
		for _, p := range earlier {
			if p.Value() != nil {
				t.Errorf("%s/%s: an earlier cell's trace is still held", tr.Name, opt.Scenario.Letter())
			}
		}
		earlier = append(earlier, weak.Make(tr))
		return run(tr, opt)
	}
	m := testMatrix(t, []Model{mdl}, []string{"INT01", "INT02", "MM05"},
		[]predictor.Scenario{predictor.ScenarioA, predictor.ScenarioC}, []int{500})
	cfg := Config{Parallelism: 1, NoTraceCache: true, WarmCache: t.TempDir(), NoAggregates: true}
	sum, err := Run(m, cfg, Discard)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 || len(earlier) != 6 {
		t.Fatalf("%d failed cells, %d traces run; want 0 and 6", sum.Failed, len(earlier))
	}
}

package harness

import (
	"fmt"
	"hash/fnv"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// warmCache is the store-adjacent checkpoint blob cache: one file per
// cell identity under Config.WarmCache (conventionally the result
// store's path plus ".ckpt/"). Each blob wraps a sim checkpoint in a
// "warmcache" section that records the full cell key it was taken
// under, so a filename-hash collision loads as a miss instead of
// feeding another cell's state to the simulator. The sim layer
// re-validates pipeline configuration and predictor geometry on decode
// either way — the cache is an optimization, never something a result
// depends on: any load failure falls back to a cold run.
type warmCache struct {
	dir          string
	hits, misses *metrics.Counter
	writeErrs    *metrics.Counter
	log          *slog.Logger
	warnOnce     sync.Once
}

// newWarmCache opens (creating if needed) the blob directory. Errors
// disable the cache rather than failing the run — callers that want
// fail-fast behaviour (the CLIs) validate the directory up front.
func newWarmCache(dir string, rm *runMetrics, log *slog.Logger) *warmCache {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil
	}
	wc := &warmCache{dir: dir, log: log}
	if rm != nil {
		wc.hits, wc.misses = rm.warmHits, rm.warmMisses
		wc.writeErrs = rm.warmWriteErrs
	}
	return wc
}

// fail accounts a checkpoint blob that could not be persisted. Loads
// stay best-effort and silent (a missing blob is just a miss), but a
// failing save means a read-only or full cache directory is quietly
// degrading every future run to cold starts — so it is counted in
// bpbench_warm_cache_write_errors_total and logged once per run at
// debug (-v) level.
func (wc *warmCache) fail(err error) {
	wc.writeErrs.Inc()
	if wc.log != nil {
		wc.warnOnce.Do(func() {
			wc.log.Debug("warm cache writes failing; cells will cold-start", "dir", wc.dir, "err", err)
		})
	}
}

// key is the cache identity of one cell: the canonical model spec (the
// name for models built without one), the content hash of the cell's
// trace (trace.Trace.Hash) — so a regenerated or retuned workload
// invalidates its blobs by construction — and the pipeline configuration
// the simulation runs under.
func (wc *warmCache) key(j Job, traceHash uint64) string {
	spec := j.Model.Spec
	if spec == "" {
		spec = j.Model.Name
	}
	return fmt.Sprintf("%s|%016x|%s|w%d|d%d|p%g",
		spec, traceHash, j.Opts.Scenario.Letter(),
		j.Opts.Window, j.Opts.ExecDelay, j.Opts.PenaltyBase)
}

// path maps a cell key to its blob file (FNV-1a of the key, hex).
func (wc *warmCache) path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(wc.dir, fmt.Sprintf("%016x.ckpt", h.Sum64()))
}

const warmCacheSection = "warmcache"

// load returns the cached checkpoint for key, or nil when there is
// none — or when the blob is unreadable, from a newer format, or was
// written under a colliding key (all misses, never errors). The
// checkpoint's blob is read in place: it is a view of the file buffer.
func (wc *warmCache) load(key string) *sim.Checkpoint {
	blob, err := os.ReadFile(wc.path(key))
	if err != nil {
		return nil
	}
	dec := checkpoint.NewDecoder(blob)
	dec.Open(warmCacheSection, 1)
	storedKey := dec.String()
	at := dec.U64()
	inner := dec.Bytes()
	dec.Close()
	if dec.Err() != nil || storedKey != key {
		return nil
	}
	return &sim.Checkpoint{At: at, Blob: inner}
}

// save writes (or overwrites — later checkpoints of one cell supersede
// earlier ones) the blob for key atomically: temp file plus rename, so
// a reader never sees a torn blob and a crash mid-save leaves the
// previous checkpoint intact. The frame is a small header (the
// warmcache section up to the blob's length prefix) followed by the
// blob itself, written in place rather than copied into the frame.
func (wc *warmCache) save(key string, blob []byte, at uint64) {
	hdr := checkpoint.NewEncoder()
	hdr.Begin(warmCacheSection, 1)
	hdr.String(key)
	hdr.U64(at)
	hdr.Trailer(len(blob))
	hdr.End()
	tmp, err := os.CreateTemp(wc.dir, "ckpt-*.tmp")
	if err != nil {
		wc.fail(err)
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(hdr.Blob())
	if werr == nil {
		_, werr = tmp.Write(blob)
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		if werr == nil {
			werr = cerr
		}
		wc.fail(werr)
		return
	}
	if err := os.Rename(name, wc.path(key)); err != nil {
		os.Remove(name)
		wc.fail(err)
	}
}

// WarmCacheDir is the conventional blob-cache directory for a result
// store: the store path plus ".ckpt" ("results/store.jsonl" caches
// under "results/store.jsonl.ckpt/"). Store lifecycle tooling treats
// the suffix as opaque: compact rewrites the store file only and never
// touches the sidecar directory.
func WarmCacheDir(storePath string) string { return storePath + ".ckpt" }

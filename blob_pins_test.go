package repro

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/composed"
	"repro/internal/gehl"
	"repro/internal/gshare"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
)

// blobPinsPath holds the SHA-256 of whole simulator checkpoint blobs,
// the sim section included. A blob is what the warm cache stores, so
// these bytes are a format: a change to one needs a section version
// bump, never a new pin. Regenerate only for such a bump, with
// BP_WRITE_BLOB_PINS=1 go test -run TestWholeBlobsPinned .
const blobPinsPath = "testdata/whole_blobs.jsonl"

// blobPin is one pinned blob.
type blobPin struct {
	Spec     string `json:"spec"`
	Scenario string `json:"scenario"`
	At       uint64 `json:"at"`
	Bytes    int    `json:"bytes"`
	SHA256   string `json:"sha256"`
}

// blobCase is one random spec and scenario the pins cover.
type blobCase struct {
	spec string
	sc   Scenario
}

// blobCases draws three random specs of each randSpec kind, each under
// one of the four scenarios in turn.
func blobCases() []blobCase {
	rng := rand.New(rand.NewSource(0xb10b5))
	scenarios := []Scenario{ScenarioA, ScenarioB, ScenarioC, ScenarioI}
	drawn := make(map[string]int)
	var cases []blobCase
	for len(cases) < 12 {
		spec := randSpec(rng)
		kind := spec[:strings.Index(spec, ":")]
		if drawn[kind] == 3 {
			continue
		}
		drawn[kind]++
		cases = append(cases, blobCase{spec, scenarios[len(cases)%len(scenarios)]})
	}
	return cases
}

// blobTrace and blobEvery give each case a mid-trace checkpoint at
// branch 1024, between decode batches, and one at the trace's end.
const (
	blobTrace  = 3000
	blobEvery  = 1000
	blobMidway = 1024
)

// pinnedBlobs runs c and returns its first (mid-trace) and its last
// (end-of-trace) checkpoint.
func pinnedBlobs(t *testing.T, c blobCase) (mid, end Checkpoint) {
	t.Helper()
	m, err := LookupModel(c.spec)
	if err != nil {
		t.Fatal(err)
	}
	var cks []Checkpoint
	opt := Options{Scenario: c.sc, CheckpointEvery: blobEvery, OnCheckpoint: func(blob []byte, at uint64) {
		cks = append(cks, Checkpoint{At: at, Blob: slices.Clone(blob)})
	}}
	m.Run(MustGenerateTrace("MM05", blobTrace), opt)
	if len(cks) < 2 || cks[0].At != blobMidway || cks[len(cks)-1].At != blobTrace {
		t.Fatalf("%s: checkpoints %v, want the first at %d and the last at %d", c.spec, cks, blobMidway, blobTrace)
	}
	return cks[0], cks[len(cks)-1]
}

// inFlight reads the in-flight branch count out of a blob's sim
// section.
func inFlight(t *testing.T, blob []byte) int {
	t.Helper()
	dec := checkpoint.NewDecoder(blob)
	dec.Open("sim", 2)
	dec.U8()  // scenario
	dec.Int() // window
	dec.Int() // exec delay
	dec.F64() // penalty
	for range 8 {
		dec.U64() // the counters
	}
	n := dec.Int()
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

func pinOf(c blobCase, ck Checkpoint) blobPin {
	sum := sha256.Sum256(ck.Blob)
	return blobPin{Spec: c.spec, Scenario: c.sc.Letter(), At: ck.At, Bytes: len(ck.Blob), SHA256: hex.EncodeToString(sum[:])}
}

// TestWholeBlobsPinned holds whole checkpoint blobs, the sim section
// included, byte-identical to the pins: for random specs of every
// randSpec kind, a mid-trace blob with branches in flight and an
// end-of-trace blob.
func TestWholeBlobsPinned(t *testing.T) {
	var got []blobPin
	for _, c := range blobCases() {
		mid, end := pinnedBlobs(t, c)
		if inFlight(t, mid.Blob) == 0 {
			t.Fatalf("%s %s: the mid-trace blob has no branch in flight", c.spec, c.sc)
		}
		if n := inFlight(t, end.Blob); n != 0 {
			t.Fatalf("%s %s: the end-of-trace blob has %d branches in flight", c.spec, c.sc, n)
		}
		got = append(got, pinOf(c, mid), pinOf(c, end))
	}
	if os.Getenv("BP_WRITE_BLOB_PINS") != "" {
		var buf bytes.Buffer
		for _, p := range got {
			line, _ := json.Marshal(p)
			buf.Write(append(line, '\n'))
		}
		if err := os.MkdirAll(filepath.Dir(blobPinsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(blobPinsPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d pins to %s", len(got), blobPinsPath)
		return
	}
	f, err := os.Open(blobPinsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []blobPin
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var p blobPin
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if len(got) != len(want) {
		t.Fatalf("%d blobs, %d pinned", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("blob %d moved:\n  got    %+v\n  pinned %+v", i, got[i], want[i])
		}
	}
}

// TestCountedSizeOfPinnedBlobs: over the pinned cases, at every
// checkpoint, a Sizer counts exactly the bytes the predictor's Snapshot
// encodes, that Snapshot is the whole blob's tail, and counting leaves
// it unchanged. (The Runner checks its own count of every whole blob,
// the sim section included, as it encodes it.)
func TestCountedSizeOfPinnedBlobs(t *testing.T) {
	tr := MustGenerateTrace("MM05", blobTrace)
	for _, c := range blobCases() {
		m, err := LookupModel(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Scenario: c.sc, CheckpointEvery: blobEvery}
		var checked int
		switch p := m.NewPredictor().(type) {
		case predictor.Predictor[tage.Ctx]:
			checked = checkCountedSnapshots(t, c, p, tr, opt)
		case predictor.Predictor[composed.Ctx]:
			checked = checkCountedSnapshots(t, c, p, tr, opt)
		case predictor.Predictor[gshare.Ctx]:
			checked = checkCountedSnapshots(t, c, p, tr, opt)
		case predictor.Predictor[gehl.Ctx]:
			checked = checkCountedSnapshots(t, c, p, tr, opt)
		default:
			t.Fatalf("%s: a %T predictor, of no context type this test knows", c.spec, p)
		}
		if checked < 2 {
			t.Fatalf("%s: %d checkpoints checked", c.spec, checked)
		}
	}
}

func checkCountedSnapshots[C any](t *testing.T, c blobCase, p predictor.Predictor[C], tr *Trace, opt Options) int {
	t.Helper()
	header := len(checkpoint.NewEncoder().Blob())
	snapshot := func() []byte {
		enc := checkpoint.NewEncoder()
		p.Snapshot(enc)
		return enc.Blob()
	}
	checked := 0
	opt.OnCheckpoint = func(blob []byte, at uint64) {
		before := snapshot()
		var sz checkpoint.Sizer
		p.Snapshot(sz.Encoder())
		if sz.Len() != len(before) {
			t.Errorf("%s %s at %d: counted %d bytes, the Snapshot holds %d", c.spec, c.sc, at, sz.Len(), len(before))
		}
		if !bytes.HasSuffix(blob, before[header:]) {
			t.Errorf("%s %s at %d: the Snapshot is not the blob's tail", c.spec, c.sc, at)
		}
		if !bytes.Equal(snapshot(), before) {
			t.Errorf("%s %s at %d: a count walk changed the Snapshot", c.spec, c.sc, at)
		}
		checked++
	}
	var rn sim.Runner[C]
	rn.RunTrace(p, tr, opt)
	return checked
}

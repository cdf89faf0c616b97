package workload

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/trace"
)

// identityFile pins what every generated trace is: its content hash
// (the warm-cache key and the "file:<hash>" name), the SHA-256 of its
// BPT1 bytes and its summary statistics. The records were written
// before trace storage went compact, from the []Branch representation,
// and are never regenerated: a record that stops matching is a change
// of trace identity, which moves every cell key built on it.
const identityFile = "testdata/trace_identity.jsonl"

// traceIdentity is one pinned trace.
type traceIdentity struct {
	Spec     string      `json:"spec"`
	Branches int         `json:"branches"`
	Hash     string      `json:"hash"`
	SHA256   string      `json:"sha256"`
	Stats    trace.Stats `json:"stats"`
}

// identityCases lists the pinned traces: the 40 benchmarks at 1,000 and
// 50,000 branches, WS03 at 20,000 (the CI file round trip), the six
// generator kinds at their defaults, and two wide specs whose static
// branches outnumber any benchmark's (6,607 and 16,640 at 1M).
func identityCases() []traceIdentity {
	var cases []traceIdentity
	for _, n := range []int{1000, 50000} {
		for _, s := range All() {
			cases = append(cases, traceIdentity{Spec: s.Name, Branches: n})
		}
	}
	cases = append(cases, traceIdentity{Spec: "WS03", Branches: 20000})
	for _, n := range []int{1000, 50000} {
		for _, s := range []string{"loopy:", "callret:", "datadep:", "phased:", "ctxflush:",
			"mix:loopy=1,callret=1,datadep=1,phased=1,ctxflush=1"} {
			cases = append(cases, traceIdentity{Spec: s, Branches: n})
		}
	}
	for _, n := range []int{1000, 50000, 1000000} {
		for _, s := range []string{"loopy:body=64,sites=64", "datadep:sites=256,filler=64"} {
			cases = append(cases, traceIdentity{Spec: s, Branches: n})
		}
	}
	return cases
}

// identityOf generates c's trace and measures it.
func identityOf(c traceIdentity) (traceIdentity, error) {
	sp, err := ResolveSpec(c.Spec)
	if err != nil {
		return c, err
	}
	tr := Generate(sp, c.Branches)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		return c, err
	}
	sum := sha256.Sum256(buf.Bytes())
	c.Hash = fmt.Sprintf("%016x", tr.Hash())
	c.SHA256 = hex.EncodeToString(sum[:])
	c.Stats = trace.Summarize(tr)
	return c, nil
}

func TestTraceIdentityPinned(t *testing.T) {
	f, err := os.Open(identityFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pinned []traceIdentity
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec traceIdentity
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s: %v", identityFile, err)
		}
		pinned = append(pinned, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := identityCases()
	if len(pinned) != len(cases) {
		t.Fatalf("%s holds %d records, the case list %d", identityFile, len(pinned), len(cases))
	}
	for i, want := range pinned {
		if c := cases[i]; c.Spec != want.Spec || c.Branches != want.Branches {
			t.Fatalf("record %d is %s@%d, the case list has %s@%d", i, want.Spec, want.Branches, c.Spec, c.Branches)
		}
		got, err := identityOf(want)
		if err != nil {
			t.Fatalf("%s@%d: %v", want.Spec, want.Branches, err)
		}
		if got != want {
			t.Errorf("%s@%d moved:\n got  %+v\n want %+v", want.Spec, want.Branches, got, want)
		}
	}
}

package grammar_test

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/workload"
)

// pinnedFile holds every pinned case, one JSON object a line. Its
// inputs are the seeds of FuzzParseSpec and FuzzParseTraceSpec, a few
// hundred specs drawn by the two grammars' random spec generators at
// fixed seeds, every case of their error tables, and comma lists for
// the splitters; its outputs were recorded before the two grammars
// moved onto one core, so a move that changes any identity fails here.
// An intended change of identity edits the records it moves, by hand.
const pinnedFile = "testdata/pinned.jsonl"

// pinned is one case. Op "parse" parses In and pins its canonical
// form; "split" splits the comma list In and pins the segments;
// "sweep" splits In into base specs and pins their sweep of Key over
// Values. Rejected pins a parse or sweep error; for a split it means
// some segment does not parse, and then only that rejection is pinned,
// not where the list was cut.
type pinned struct {
	Grammar  string   `json:"grammar"` // "models" or "workload"
	Op       string   `json:"op"`
	In       string   `json:"in"`
	Key      string   `json:"key,omitempty"`
	Values   []string `json:"values,omitempty"`
	Out      []string `json:"out,omitempty"`
	Rejected bool     `json:"rejected,omitempty"`
}

// entryPoints are one grammar's entry points as the corpus uses them.
type entryPoints struct {
	parse func(string) (string, error)
	valid func(string) bool // a list segment the grammar's consumer accepts
	split func(string) []string
	sweep func(bases []string, key string, values []string) ([]string, error)
}

var grammars = map[string]entryPoints{
	"models": {
		parse: func(s string) (string, error) {
			spec, err := models.ParseSpec(s)
			return spec.Canonical(), err
		},
		valid: func(s string) bool {
			_, err := models.ParseSpec(s)
			return err == nil
		},
		split: models.SplitList,
		sweep: models.SweepSpecs,
	},
	"workload": {
		parse: func(s string) (string, error) {
			spec, err := workload.ParseTraceSpec(s)
			return spec.Canonical(), err
		},
		// A trace list also carries benchmark-name globs ("INT*").
		valid: func(s string) bool {
			_, err := workload.ParseTraceSpec(s)
			return err == nil || (strings.ContainsAny(s, "*?[") && !strings.Contains(s, ":"))
		},
		split: workload.SplitPatterns,
		sweep: workload.SweepSpecs,
	},
}

// run computes the case's outputs with the current code.
func (c pinned) run(t *testing.T) pinned {
	g, ok := grammars[c.Grammar]
	if !ok {
		t.Fatalf("unknown grammar %q", c.Grammar)
	}
	out := c
	out.Out, out.Rejected = nil, false
	switch c.Op {
	case "parse":
		canon, err := g.parse(c.In)
		if err != nil {
			out.Rejected = true
		} else {
			out.Out = []string{canon}
		}
	case "split":
		out.Out = g.split(c.In)
		for _, seg := range out.Out {
			if !g.valid(seg) {
				out.Rejected = true
			}
		}
	case "sweep":
		got, err := g.sweep(g.split(c.In), c.Key, c.Values)
		if err != nil {
			out.Rejected = true
		} else {
			out.Out = got
		}
	default:
		t.Fatalf("unknown op %q", c.Op)
	}
	return out
}

func readPinned(t *testing.T) []pinned {
	t.Helper()
	f, err := os.Open(pinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cases []pinned
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var c pinned
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("%s line %d: %v", pinnedFile, len(cases)+1, err)
		}
		cases = append(cases, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestPinnedSpecCorpus: every pinned spec keeps its canonical form or
// its rejection, every valid list splits where it did and every
// malformed one is still rejected, and every sweep expands as it did.
func TestPinnedSpecCorpus(t *testing.T) {
	cases := readPinned(t)
	if len(cases) < 500 {
		t.Fatalf("%s holds %d cases; the corpus is incomplete", pinnedFile, len(cases))
	}
	for _, c := range cases {
		got := c.run(t)
		switch {
		case got.Rejected != c.Rejected:
			t.Errorf("%s %s %q: rejected %v, pinned %v (out %q)", c.Grammar, c.Op, c.In, got.Rejected, c.Rejected, got.Out)
		case c.Op == "split" && c.Rejected:
			// A malformed list need only stay rejected.
		case !slices.Equal(got.Out, c.Out):
			t.Errorf("%s %s %q: got %q, pinned %q", c.Grammar, c.Op, c.In, got.Out, c.Out)
		}
	}
}

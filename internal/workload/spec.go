package workload

// The trace-spec grammar: workload identity as a parseable, canonically
// stringable description, the trace axis's counterpart of the model
// spec. A trace spec is the universal trace currency: the
// harness keys cells by it, store records carry it, the distributed
// wire format ships it so remote workers regenerate the same branches,
// and the CLIs accept it wherever they accept benchmark names.
//
// Grammar:
//
//	spec   := name                     named sugar: INT01, MM05, …
//	        | kind ':' [fields] seed?  parameterised generator kinds
//	        | "file" ':' path          external trace in the binary format
//	kind   := loopy | callret | datadep | phased | ctxflush | mix
//	fields := key '=' value ( ',' key '=' value )*
//	seed   := '#' digits               generation seed (default 1)
//
// Examples:
//
//	INT01                         one of the 40 named benchmarks
//	phased:period=4096#1          phase flips every 4096 branches, seed 1
//	loopy:trip=100,jitter=8       irregular loops, all other knobs default
//	mix:loopy=2,datadep=1         weighted composition of other kinds
//	file:traces/gcc.bpt           converted external trace, keyed by content
//
// Canonicalisation normalises field order (each kind declares one) and
// value formatting, so ParseTraceSpec(s.Canonical()) is the identity
// and two spellings of one workload collide on the same cell key. The
// 40 named benchmarks are sugar specs whose canonical form is exactly
// the name, so every pre-spec cell key, golden record and warm-cache
// key survives byte-identical.
//
// The field list, WithField, SweepSpecs, the range rule and
// SplitPatterns are the core this grammar shares with the model grammar
// (internal/grammar); named benchmarks, #seed, file: and mix's
// needs-a-weight rule are the trace grammar's own, as is the kind table
// in kinds.go.

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/grammar"
	"repro/internal/trace"
)

// TraceSpec is a parsed workload identity. The zero value is invalid;
// obtain one from ParseTraceSpec (or derive one with WithField, which
// re-validates).
type TraceSpec struct {
	kind    string         // generator kind, "file", or a benchmark name
	named   bool           // kind is one of the 40 benchmark names
	path    string         // file-backed source path (kind "file")
	fields  grammar.Values // explicitly-set fields, canonical order
	seed    uint64         // generation seed
	hasSeed bool           // spec carries an explicit '#seed' suffix
}

// Kind returns the generator kind ("loopy", …), "file" for file-backed
// sources, or the benchmark name for named sugar.
func (s TraceSpec) Kind() string { return s.kind }

// IsNamed reports whether the spec is one of the named-benchmark sugars.
func (s TraceSpec) IsNamed() bool { return s.named }

// IsFile reports whether the spec is a file-backed source.
func (s TraceSpec) IsFile() bool { return s.kind == "file" }

// Seed returns the generation seed and whether the spec spells one out
// (generation defaults to seed 1 when it does not).
func (s TraceSpec) Seed() (uint64, bool) { return s.seed, s.hasSeed }

// Field returns the explicitly-set value of a field, if any.
func (s TraceSpec) Field(key string) (string, bool) { return s.fields.Get(key) }

// Canonical returns the canonical spec string: parsing it back yields
// an identical spec, and every layer (cell keys, stores, wire jobs)
// uses this form as the trace identity for regenerable workloads.
func (s TraceSpec) Canonical() string {
	if s.named {
		return s.kind
	}
	if s.kind == fileKind {
		return fileKind + ":" + s.path
	}
	var b strings.Builder
	b.WriteString(s.kind)
	b.WriteByte(':')
	s.fields.Write(&b)
	if s.hasSeed {
		fmt.Fprintf(&b, "#%d", s.seed)
	}
	return b.String()
}

// String implements fmt.Stringer as the canonical form.
func (s TraceSpec) String() string { return s.Canonical() }

const fileKind = "file"

// Kinds lists the parameterised generator kinds in documentation order
// (the file-backed source is a pseudo-kind on top of these).
func Kinds() []string {
	out := make([]string, len(kindOrder))
	copy(out, kindOrder)
	return out
}

// KindSummaries renders one line per kind — fields with their defaults,
// then what the kind generates — for CLI listings.
func KindSummaries() []string {
	out := make([]string, 0, len(kindOrder)+1)
	for _, k := range kindOrder {
		def := traceKindDefs[k]
		fs := make([]string, len(def.fields))
		for i, f := range def.fields {
			if f.Default != "" {
				fs[i] = f.Key + "=" + f.Default
			} else {
				fs[i] = f.Key
			}
		}
		out = append(out, fmt.Sprintf("%s:%s  (%s)", k, strings.Join(fs, ","), def.doc))
	}
	out = append(out, fileKind+":path.bpt  (external trace in the binary format; see tracegen convert)")
	return out
}

// FieldSweepsAsRange reports whether -trace-sweep may give the field as
// an inclusive lo:hi range (grammar.Grammar.SweepsAsRange).
func FieldSweepsAsRange(key string) bool { return traceGrammar.SweepsAsRange(key) }

// ParseTraceSpec parses a trace-spec string: a benchmark name, a
// parameterised generator ("phased:period=4096#1"), or a file-backed
// source ("file:path.bpt"). Errors name the offending field and the
// valid alternatives.
func ParseTraceSpec(s string) (TraceSpec, error) {
	raw := strings.TrimSpace(s)
	if raw == "" {
		return TraceSpec{}, fmt.Errorf("workload: empty trace spec")
	}
	kind, body, hasBody := strings.Cut(raw, ":")
	kind = strings.TrimSpace(kind)
	if !hasBody {
		if _, ok := Find(raw); ok {
			return TraceSpec{kind: raw, named: true}, nil
		}
		if hash := strings.LastIndexByte(raw, '#'); hash >= 0 {
			if _, ok := Find(raw[:hash]); ok {
				return TraceSpec{}, fmt.Errorf("workload: named benchmark %q carries its own seed; drop the %q suffix",
					raw[:hash], raw[hash:])
			}
		}
		if traceKindDefs[raw] != nil {
			return TraceSpec{}, fmt.Errorf("workload: %q is a generator kind, not a benchmark; write a spec like %q (all fields default) or %q",
				raw, raw+":", raw+":"+exampleField(raw))
		}
		return TraceSpec{}, unknownNameError(raw)
	}
	if kind == fileKind {
		p := strings.TrimSpace(body)
		if p == "" {
			return TraceSpec{}, fmt.Errorf("workload: %q needs a path, e.g. 'file:traces/gcc.bpt'", raw)
		}
		if strings.Contains(p, ",") {
			return TraceSpec{}, fmt.Errorf("workload: %q: a file path may not hold a comma, because trace lists split on commas; rename the file", raw)
		}
		return TraceSpec{kind: fileKind, path: p}, nil
	}
	def := traceKindDefs[kind]
	if def == nil {
		return TraceSpec{}, fmt.Errorf("workload: unknown workload kind %q (kinds: %s; or a benchmark name, or 'file:path.bpt')",
			kind, strings.Join(kindOrder, ", "))
	}
	spec := TraceSpec{kind: kind}
	if hash := strings.LastIndexByte(body, '#'); hash >= 0 {
		n, err := strconv.ParseUint(strings.TrimSpace(body[hash+1:]), 10, 64)
		if err != nil {
			return TraceSpec{}, fmt.Errorf("workload: spec %q: bad seed %q (want '#<unsigned integer>')", raw, body[hash:])
		}
		spec.seed, spec.hasSeed = n, true
		body = body[:hash]
	}
	if strings.TrimSpace(body) != "" {
		fields, err := traceGrammar.Parse(raw, kind, body)
		if err != nil {
			return TraceSpec{}, err
		}
		spec.fields = fields
	}
	if kind == "mix" && len(spec.fields) == 0 {
		return TraceSpec{}, fmt.Errorf("workload: spec %q: mix needs at least one component weight, e.g. 'mix:loopy=2,datadep=1'", raw)
	}
	return spec, nil
}

// exampleField renders a plausible key=value for a kind's error hints.
func exampleField(kind string) string {
	def := traceKindDefs[kind]
	if def == nil || len(def.fields) == 0 {
		return "key=value"
	}
	f := def.fields[0]
	if f.Default != "" {
		return f.Key + "=" + f.Default
	}
	return f.Key + "=1"
}

// WithField returns the spec with one field set (replacing an existing
// value), re-validated — the rewriting primitive behind `bpbench
// -trace-sweep`. Named benchmarks and file sources have no field
// grammar and error with the generator kinds to use instead.
func (s TraceSpec) WithField(key, val string) (TraceSpec, error) {
	if s.named {
		return TraceSpec{}, fmt.Errorf("workload: named benchmark %q has no parameter fields; sweep a generator spec instead (kinds: %s)",
			s.kind, strings.Join(kindOrder, ", "))
	}
	if s.kind == fileKind {
		return TraceSpec{}, fmt.Errorf("workload: file-backed trace %q has no parameter fields", s.Canonical())
	}
	fields, err := traceGrammar.With(s.kind, s.fields, key, val)
	if err != nil {
		return TraceSpec{}, err
	}
	out := s
	out.fields = fields
	return out, nil
}

// Resolve materialises the spec as a generatable Spec. Named sugar
// resolves to its benchmark; generator kinds build a Spec whose Name is
// the canonical spec string; file-backed sources load the trace now
// (errors surface here, not mid-run) and are named by content hash —
// "file:<16-hex>" — so two paths to identical bytes collide on one cell
// key and a changed file gets a fresh identity, while SpecString keeps
// the resolvable "file:<path>" form for wire jobs and store records.
func (s TraceSpec) Resolve() (Spec, error) {
	switch {
	case s.named:
		sp, _ := Find(s.kind)
		return sp, nil
	case s.kind == fileKind:
		f, err := os.Open(s.path)
		if err != nil {
			return Spec{}, fmt.Errorf("workload: file trace: %w", err)
		}
		defer f.Close()
		loaded, err := trace.Read(f)
		if err != nil {
			return Spec{}, fmt.Errorf("workload: file trace %s: %w", s.path, err)
		}
		name := fmt.Sprintf("file:%016x", loaded.Hash())
		category := loaded.Category
		if category == "" {
			category = "FILE"
		}
		return Spec{
			Name:     name,
			Category: category,
			spec:     fileKind + ":" + s.path,
			gen: func(branches int) *trace.Trace {
				if branches <= 0 {
					branches = loaded.Len()
				}
				tr := loaded.Prefix(branches)
				tr.Name, tr.Category = name, category
				return tr
			},
		}, nil
	default:
		def := traceKindDefs[s.kind]
		seed := uint64(1)
		if s.hasSeed {
			seed = s.seed
		}
		ts := s
		return Spec{
			Name:     s.Canonical(),
			Category: strings.ToUpper(s.kind),
			Seed:     seed,
			build:    func(b *builder) node { return def.program(ts, b) },
		}, nil
	}
}

// ResolveSpec parses and resolves in one step: the single entry point
// for anything that accepts "a trace" — a benchmark name, a generator
// spec, or a file source.
func ResolveSpec(s string) (Spec, error) {
	ts, err := ParseTraceSpec(s)
	if err != nil {
		return Spec{}, err
	}
	return ts.Resolve()
}

// SweepSpecs expands one generator field across values for every base
// spec, the `bpbench -trace-sweep` axis (grammar.Sweep).
func SweepSpecs(bases []string, key string, values []string) ([]string, error) {
	return grammar.Sweep(&traceGrammar, ParseTraceSpec, bases, key, values)
}

// SplitPatterns splits a -traces value into patterns
// (grammar.Grammar.Split): "phased:period=4096,phases=8#1,INT01" is two
// patterns, not three.
func SplitPatterns(s string) []string { return traceGrammar.Split(s) }

// unknownNameError explains an unmatched benchmark name with near-miss
// suggestions and a pointer at the spec grammar — a typo should fail
// with the fix in the message, not a bare "no such trace".
func unknownNameError(p string) error {
	hint := ""
	if sugg := nearestNames(p, 3); len(sugg) > 0 {
		hint = fmt.Sprintf(" (did you mean %s?)", strings.Join(sugg, ", "))
	}
	return fmt.Errorf("workload: trace pattern %q matches no benchmark%s; patterns also accept generator specs like 'phased:period=4096#1' (kinds: %s) and external traces as 'file:path.bpt'",
		p, hint, strings.Join(kindOrder, ", "))
}

// nearestNames returns up to max suite names within edit distance 2 of
// p (case-insensitive), nearest first.
func nearestNames(p string, max int) []string {
	up := strings.ToUpper(p)
	type cand struct {
		name string
		d    int
	}
	var cands []cand
	for _, s := range suite {
		if d := editDistance(up, s.Name); d <= 2 {
			cands = append(cands, cand{s.Name, d})
		}
	}
	var out []string
	for d := 0; d <= 2 && len(out) < max; d++ {
		for _, c := range cands {
			if c.d == d && len(out) < max {
				out = append(out, c.name)
			}
		}
	}
	return out
}

// editDistance is the Levenshtein distance between two short strings.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if v := cur[j-1] + 1; v < m {
				m = v
			}
			if v := prev[j-1] + cost; v < m {
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

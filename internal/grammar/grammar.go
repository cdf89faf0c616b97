// Package grammar is the core the model-spec grammar (internal/models)
// and the trace-spec grammar (internal/workload) share. Both spell a
// point of their axis `kind:key=value,…`, each kind declares its fields
// in canonical order, and a field's normaliser gives a value its one
// spelling. This package holds the field declaration, the key=value
// list parser, the one-field rewrite, the sweep expander, the rule for
// which fields sweep as lo:hi ranges, and the comma splitter; each
// grammar keeps its own syntax, kind table and builders.
package grammar

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Field declares one key=value field of a parameterised kind.
type Field struct {
	Key       string
	Range     bool                         // a plain integer, so a sweep may give it as lo:hi
	Default   string                       // the value when unset, if the kind lists one
	Normalise func(string) (string, error) // validate, return the canonical spelling
}

// Int declares an integer field with inclusive bounds.
func Int(key string, lo, hi int64, def string) Field {
	return Field{Key: key, Range: true, Default: def, Normalise: func(v string) (string, error) {
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return "", fmt.Errorf("%q is not an integer (want an integer in [%d, %d])", v, lo, hi)
		}
		if n < lo || n > hi {
			return "", fmt.Errorf("%d out of range [%d, %d]", n, lo, hi)
		}
		return strconv.FormatInt(n, 10), nil
	}}
}

// Fields is a kind's field list in canonical order.
type Fields []Field

// Find returns the field declared with key, or nil.
func (fs Fields) Find(key string) *Field {
	if i := fs.index(key); i >= 0 {
		return &fs[i]
	}
	return nil
}

func (fs Fields) index(key string) int {
	for i := range fs {
		if fs[i].Key == key {
			return i
		}
	}
	return -1
}

// sort puts vs in the canonical field order.
func (fs Fields) sort(vs Values) Values {
	slices.SortFunc(vs, func(a, b Value) int { return fs.index(a.Key) - fs.index(b.Key) })
	return vs
}

// Value is one field a spec sets.
type Value struct{ Key, Val string }

// Values are the fields a spec sets, in canonical order.
type Values []Value

// Get returns the value set for key, if any.
func (vs Values) Get(key string) (string, bool) {
	for _, v := range vs {
		if v.Key == key {
			return v.Val, true
		}
	}
	return "", false
}

// Write appends the canonical key=value list to b.
func (vs Values) Write(b *strings.Builder) {
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.Key)
		b.WriteByte('=')
		b.WriteString(v.Val)
	}
}

// Grammar is one spec grammar as the shared core sees it.
type Grammar struct {
	Name   string                   // prefixes errors: "models", "workload"
	Kinds  []string                 // the parameterised kinds
	Fields func(kind string) Fields // a kind's fields; nil for other names
}

func (g *Grammar) errorf(format string, args ...any) error {
	return fmt.Errorf(g.Name+": "+format, args...)
}

func (g *Grammar) unknownField(kind, key string, fs Fields) error {
	keys := make([]string, len(fs))
	for i, f := range fs {
		keys[i] = f.Key
	}
	return g.errorf("kind %q has no field %q (valid fields: %s)", kind, key, strings.Join(keys, ", "))
}

// Parse parses list, the comma-separated key=value fields of a spec of
// the given kind, into canonical order: each must be a field the kind
// declares, set once, to a value its normaliser accepts. Errors quote
// spec, the whole spec string.
func (g *Grammar) Parse(spec, kind, list string) (Values, error) {
	fs := g.Fields(kind)
	// A valid list sets each field at most once.
	out := make(Values, 0, min(strings.Count(list, ",")+1, len(fs)))
	for rest, more := list, true; more; {
		var item string
		item, rest, more = strings.Cut(rest, ",")
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, g.errorf("spec %q has an empty field (stray comma?)", spec)
		}
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return nil, g.errorf("spec %q: field %q is not key=value", spec, item)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		f := fs.Find(k)
		if f == nil {
			return nil, g.unknownField(kind, k, fs)
		}
		if _, dup := out.Get(k); dup {
			return nil, g.errorf("spec %q sets field %q twice", spec, k)
		}
		canon, err := f.Normalise(v)
		if err != nil {
			return nil, g.errorf("spec %q: field %q: %w", spec, k, err)
		}
		out = append(out, Value{k, canon})
	}
	return fs.sort(out), nil
}

// With returns a copy of vs, the fields a spec of the given kind sets,
// with key set to val: the rewrite behind each grammar's WithField.
func (g *Grammar) With(kind string, vs Values, key, val string) (Values, error) {
	fs := g.Fields(kind)
	f := fs.Find(key)
	if f == nil {
		return nil, g.unknownField(kind, key, fs)
	}
	canon, err := f.Normalise(val)
	if err != nil {
		return nil, g.errorf("field %q: %w", key, err)
	}
	out := make(Values, 0, len(vs)+1)
	for _, v := range vs {
		if v.Key != key {
			out = append(out, v)
		}
	}
	return fs.sort(append(out, Value{key, canon})), nil
}

// SweepsAsRange reports whether a sweep of key may use the inclusive
// lo:hi integer-range form: only when every kind declaring the key
// declares it a plain integer, so a field whose values hold a ':' opts
// out instead of misparsing as a range.
func (g *Grammar) SweepsAsRange(key string) bool {
	found := false
	for _, kind := range g.Kinds {
		if f := g.Fields(kind).Find(key); f != nil {
			if !f.Range {
				return false
			}
			found = true
		}
	}
	return found
}

// Split splits a comma-separated list of specs. A segment continues
// the previous spec's field list only when that spec is of a
// parameterised kind and the segment is a key=value pair with a
// glob-free key; anything else starts a new spec. So
// "tage:tables=9,hist=6:500,gshare:log=14" is two model specs and
// "phased:period=4096,phases=8#1,INT01" two trace patterns. Segments
// are trimmed and empty ones dropped.
func (g *Grammar) Split(s string) []string {
	var out []string
	for rest, more := s, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, ",")
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		key, _, isField := strings.Cut(seg, "=")
		if n := len(out); n > 0 && isField && !strings.ContainsAny(key, ":*?[") {
			if kind, _, ok := strings.Cut(out[n-1], ":"); ok && g.Fields(strings.TrimSpace(kind)) != nil {
				out[n-1] += "," + seg
				continue
			}
		}
		out = append(out, seg)
	}
	return out
}

// Spec is what Sweep needs of a grammar's parsed spec.
type Spec[S any] interface {
	WithField(key, val string) (S, error)
	Canonical() string
}

// Sweep expands one field across values for every base spec: each base
// is parsed, rewritten per value with WithField and returned in
// canonical form, base by base. Two results with one canonical form
// would collide on one cell key, so they are an error.
func Sweep[S Spec[S]](g *Grammar, parse func(string) (S, error), bases []string, key string, values []string) ([]string, error) {
	if len(values) == 0 {
		return nil, g.errorf("sweep of %q has no values", key)
	}
	var out []string
	seen := make(map[string]bool)
	for _, b := range bases {
		spec, err := parse(b)
		if err != nil {
			return nil, err
		}
		for _, v := range values {
			sw, err := spec.WithField(key, v)
			if err != nil {
				return nil, err
			}
			c := sw.Canonical()
			if seen[c] {
				return nil, g.errorf("sweep %s over %q produces duplicate spec %q", key, b, c)
			}
			seen[c] = true
			out = append(out, c)
		}
	}
	return out, nil
}

package models

// The model-spec grammar. A Spec is a structured, canonically
// stringable, round-trippable description of a predictor configuration —
// the universal currency every layer trades in: the harness keys cells by
// canonical spec strings, the result store records the spec each cell was
// simulated under, and the CLIs accept specs wherever they accept model
// names. The nine named models are rows of the registry's table (see
// named): "tage" parses to a spec whose Build declares the reference
// predictor, and the parameterised kinds declare everything else through
// the same adapter.
//
// Grammar (see the README "Model specs" section for the field tables):
//
//	spec   := model [ '@' delta ]
//	model  := name                    named sugar: tage, tage-lsc, gshare, …
//	        | kind ':' body           parameterised kinds
//	kind   := tage | gshare | gehl | composed
//	body   := fields                          (tage, gshare, gehl)
//	        | stack [ ',' fields ]            (composed)
//	stack  := "tage" ( '+' part )*            part := ium | loop | gsc | lsc
//	fields := key '=' value ( ',' key '=' value )*
//	delta  := [+-] digits             scale every table budget by 2^delta
//
// Examples:
//
//	tage                              the reference predictor (named)
//	tage@+2                           …with all tables 4x larger (Figure 9)
//	tage:tables=9                     9 tagged tables, everything else default
//	tage:tables=13,hist=6:2000,tag=12
//	gshare:log=20                     2^20-counter gshare
//	composed:tage+ium+loop+gsc        the ISL-TAGE stack, spelled out
//	composed:tage+ium+lsc,tables=10   a TAGE-LSC-style stack over a 10-table core
//
// Canonicalisation normalises field order (each kind declares one), value
// formatting, stack order and the delta sign, so ParseSpec(s.Canonical())
// is the identity and two spellings of the same configuration collide on
// the same cell key instead of silently duplicating work.
//
// The field list, WithField, SweepSpecs, the range rule and SplitList
// are the core this grammar shares with the trace grammar
// (internal/grammar); the named sugar, the composed stack, @delta and
// the kind table with its builders are the model grammar's own.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/composed"
	"repro/internal/gehl"
	"repro/internal/grammar"
	"repro/internal/tage"
)

// Spec is a parsed predictor configuration. The zero value is invalid;
// obtain one from ParseSpec (or derive one with WithField / WithDelta,
// which re-validate).
type Spec struct {
	kind     string         // spec kind, or a named-model identifier
	named    bool           // kind is a row of the named-model table
	parts    []string       // composed component stack, canonical order
	fields   grammar.Values // explicitly-set fields, canonical order
	delta    int            // storage-budget exponent (2^delta)
	hasDelta bool           // spec carries a delta suffix (including @+0)
}

// Kind returns the spec kind ("tage", "gshare", …) or, for named sugar,
// the model identifier.
func (s Spec) Kind() string { return s.kind }

// IsNamed reports whether the spec is one of the named-model sugars.
func (s Spec) IsNamed() bool { return s.named }

// Delta returns the storage-budget exponent and whether the spec carries
// one at all (an explicit "@+0" is present but zero).
func (s Spec) Delta() (int, bool) { return s.delta, s.hasDelta }

// Field returns the explicitly-set value of a field, if any.
func (s Spec) Field(key string) (string, bool) { return s.fields.Get(key) }

// Canonical returns the canonical spec string: parsing it back yields an
// identical spec, and every layer (cell keys, stores, diffs) uses this
// form as the model identity.
func (s Spec) Canonical() string {
	var b strings.Builder
	b.WriteString(s.kind)
	if !s.named {
		b.WriteByte(':')
		b.WriteString(strings.Join(s.parts, "+"))
		if len(s.parts) > 0 && len(s.fields) > 0 {
			b.WriteByte(',')
		}
		s.fields.Write(&b)
	}
	if s.hasDelta {
		fmt.Fprintf(&b, "@%+d", s.delta)
	}
	return b.String()
}

// String implements fmt.Stringer as the canonical form.
func (s Spec) String() string { return s.Canonical() }

// CanScale reports whether the spec supports a storage-budget delta:
// every parameterised kind scales (a pure power-of-two shift of its
// table budgets), and among the named models those listed by
// ScalableNames do.
func (s Spec) CanScale() bool {
	return !s.named || lookup(s.kind).scale != nil
}

// WithDelta returns the spec rescaled to carry the storage-budget
// exponent d (replacing any existing delta), erroring on specs that do
// not scale (see CanScale) — so a derived spec always canonicalises to
// a parseable string.
func (s Spec) WithDelta(d int) (Spec, error) {
	if !s.CanScale() {
		return Spec{}, noDeltaError(s.kind)
	}
	out := s
	out.delta, out.hasDelta = d, true
	return out, nil
}

func noDeltaError(name string) error {
	return fmt.Errorf("models: named model %q does not support a storage delta (scalable named models: %s)",
		name, strings.Join(ScalableNames(), ", "))
}

// WithField returns the spec with one field set (replacing an existing
// value), re-validated — the rewriting primitive behind `bpbench -sweep`.
// Named specs backed by a parameterised kind of the same name (tage,
// gshare, gehl) desugar first; other named models have no field grammar
// and error with the explicit spelling to use instead.
func (s Spec) WithField(key, val string) (Spec, error) {
	base := s
	if s.named {
		if def := kinds[s.kind]; def == nil || def.stacked {
			hint := lookup(s.kind).explicit
			if hint == "" {
				hint = "kind:key=value,…"
			}
			return Spec{}, fmt.Errorf("models: named model %q has no parameter fields; spell the configuration out (e.g. '%s') to set %q",
				s.kind, hint, key)
		}
		base = Spec{kind: s.kind, delta: s.delta, hasDelta: s.hasDelta}
	}
	fields, err := specGrammar.With(base.kind, base.fields, key, val)
	if err != nil {
		return Spec{}, err
	}
	base.fields = fields
	return base, nil
}

// Kinds lists the parameterised spec kinds in documentation order.
func Kinds() []string {
	return []string{"tage", "gshare", "gehl", "composed"}
}

// FieldSweepsAsRange reports whether `bpbench -sweep` may give the field
// as an inclusive lo:hi range (grammar.Grammar.SweepsAsRange).
func FieldSweepsAsRange(key string) bool { return specGrammar.SweepsAsRange(key) }

// ParseSpec parses a model-spec string: a named model ("tage-lsc"), a
// parameterised configuration ("tage:tables=9,hist=6:2000"), either
// optionally scaled by a storage delta ("gshare:log=20@+2"). Errors name
// the offending field and the valid alternatives.
func ParseSpec(s string) (Spec, error) {
	raw := strings.TrimSpace(s)
	if raw == "" {
		return Spec{}, fmt.Errorf("models: empty model spec")
	}
	head := raw
	var spec Spec
	if at := strings.LastIndexByte(head, '@'); at >= 0 {
		d, err := parseDeltaSuffix(head[at+1:])
		if err != nil {
			return Spec{}, fmt.Errorf("models: spec %q: %w", raw, err)
		}
		spec.delta, spec.hasDelta = d, true
		head = head[:at]
	}
	kind, body, hasBody := strings.Cut(head, ":")
	kind = strings.TrimSpace(kind)
	if !hasBody {
		n := lookup(kind)
		if n == nil {
			return Spec{}, fmt.Errorf("models: unknown model %q (named models: %s; parameterised kinds: %s)",
				kind, strings.Join(Names(), ", "), strings.Join(Kinds(), ", "))
		}
		if spec.hasDelta && n.scale == nil {
			return Spec{}, noDeltaError(kind)
		}
		spec.kind, spec.named = kind, true
		return spec, nil
	}
	def := kinds[kind]
	if def == nil {
		return Spec{}, fmt.Errorf("models: unknown spec kind %q (parameterised kinds: %s; or use a named model: %s)",
			kind, strings.Join(Kinds(), ", "), strings.Join(Names(), ", "))
	}
	spec.kind = kind
	if strings.TrimSpace(body) == "" {
		if def.stacked {
			return Spec{}, fmt.Errorf("models: spec %q: %q needs a component stack, e.g. 'composed:tage+ium+lsc'", raw, kind)
		}
		return Spec{}, fmt.Errorf("models: spec %q has an empty parameter list (for the default configuration use the named model, e.g. %q)", raw, kind)
	}
	list := body
	if def.stacked {
		stack, rest, hasFields := strings.Cut(body, ",")
		parts, err := parseStack(stack)
		if err != nil {
			return Spec{}, fmt.Errorf("models: spec %q: %w", raw, err)
		}
		spec.parts = parts
		if !hasFields {
			return spec, nil
		}
		list = rest
	}
	fields, err := specGrammar.Parse(raw, kind, list)
	if err != nil {
		return Spec{}, err
	}
	spec.fields = fields
	return spec, nil
}

// Build declares the configuration as a runnable Model; like every
// declaration it builds no predictor. Only the zero Spec fails: ParseSpec
// and the rewrites validate everything else.
func (s Spec) Build() (*Model, error) {
	if s.kind == "" {
		return nil, errors.New("models: zero Spec (obtain one from ParseSpec)")
	}
	return s.build(), nil
}

func (s Spec) build() *Model {
	if !s.named {
		return kinds[s.kind].build(s)
	}
	n := lookup(s.kind)
	if s.hasDelta {
		return n.scale(s.delta)
	}
	return n.model()
}

// SplitList splits a -models value into specs (grammar.Grammar.Split):
// "tage:tables=9,hist=6:500,gshare:log=14" is two specs, not three.
func SplitList(s string) []string { return specGrammar.Split(s) }

// SweepSpecs expands one spec field across values for every base spec,
// the `bpbench -sweep` axis (grammar.Sweep).
func SweepSpecs(bases []string, key string, values []string) ([]string, error) {
	return grammar.Sweep(&specGrammar, ParseSpec, bases, key, values)
}

// --- delta / stack parsing ---

func parseDeltaSuffix(s string) (int, error) {
	if s == "" || (s[0] != '+' && s[0] != '-') {
		return 0, fmt.Errorf("bad storage delta %q (want a signed exponent, e.g. @+2 or @-1)", "@"+s)
	}
	d, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad storage delta %q (want a signed exponent, e.g. @+2 or @-1)", "@"+s)
	}
	return d, nil
}

// composedParts is the canonical stack order.
var composedParts = []string{"tage", "ium", "loop", "gsc", "lsc"}

func parseStack(s string) ([]string, error) {
	have := make(map[string]bool)
	for _, p := range strings.Split(s, "+") {
		p = strings.TrimSpace(p)
		known := false
		for _, k := range composedParts {
			if p == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown component %q in stack %q (valid: %s)", p, s, strings.Join(composedParts, ", "))
		}
		if have[p] {
			return nil, fmt.Errorf("duplicate component %q in stack %q", p, s)
		}
		have[p] = true
	}
	if !have["tage"] {
		return nil, fmt.Errorf("stack %q must include the \"tage\" core", s)
	}
	out := make([]string, 0, len(have))
	for _, k := range composedParts {
		if have[k] {
			out = append(out, k)
		}
	}
	return out, nil
}

// --- field definitions ---

type kindDef struct {
	stacked bool // body starts with a '+'-joined component stack
	fields  grammar.Fields
	build   func(Spec) *Model
}

// specGrammar is the model grammar as the shared spec machinery sees
// it: its kinds and their fields.
var specGrammar = grammar.Grammar{
	Name:  "models",
	Kinds: Kinds(),
	Fields: func(kind string) grammar.Fields {
		if def := kinds[kind]; def != nil {
			return def.fields
		}
		return nil
	},
}

func uintField(key string) grammar.Field {
	return grammar.Field{Key: key, Normalise: func(v string) (string, error) {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return "", fmt.Errorf("%q is not an unsigned integer", v)
		}
		return strconv.FormatUint(n, 10), nil
	}}
}

func boolField(key string) grammar.Field {
	return grammar.Field{Key: key, Normalise: func(v string) (string, error) {
		switch v {
		case "1", "true":
			return "1", nil
		case "0", "false":
			return "0", nil
		}
		return "", fmt.Errorf("%q is not a boolean (want 0, 1, true or false)", v)
	}}
}

// maxSpecHist bounds explicit history lengths; the reference series tops
// out at 2000 and the folded-history machinery rounds its buffer up to a
// power of two, so this is generous without being an allocation hazard.
const maxSpecHist = 65536

func histField(key string) grammar.Field {
	return grammar.Field{Key: key, Normalise: func(v string) (string, error) {
		lo, hi, ok := strings.Cut(v, ":")
		if !ok {
			return "", fmt.Errorf("%q is not a min:max history pair (e.g. 6:2000)", v)
		}
		l, err1 := strconv.Atoi(strings.TrimSpace(lo))
		h, err2 := strconv.Atoi(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("%q is not a min:max history pair (e.g. 6:2000)", v)
		}
		if l < 1 || h <= l || h > maxSpecHist {
			return "", fmt.Errorf("history range %d:%d invalid (want 1 <= min < max <= %d)", l, h, maxSpecHist)
		}
		return fmt.Sprintf("%d:%d", l, h), nil
	}}
}

// tageCoreFields are the fields configuring a TAGE core; the composed
// kind reuses them for its core (ium there is a stack component instead).
func tageCoreFields(withIUM bool) grammar.Fields {
	fs := grammar.Fields{
		grammar.Int("tables", 1, tage.MaxTables, ""),
		grammar.Int("log", 6, 30, ""),
		grammar.Int("tag", 4, 16, ""),
		histField("hist"),
		grammar.Int("bim", 8, 30, ""),
		grammar.Int("alloc", 1, 32, ""),
	}
	if withIUM {
		fs = append(fs, boolField("ium"))
	}
	return append(fs, boolField("banked"), uintField("seed"))
}

// kinds is the table of parameterised kinds: each kind's fields in
// canonical order and the builder that declares its configuration.
var kinds = map[string]*kindDef{
	"tage": {
		fields: tageCoreFields(true),
		build:  buildTageSpec,
	},
	"gshare": {
		fields: grammar.Fields{grammar.Int("log", 8, 30, "")},
		build:  buildGshareSpec,
	},
	"gehl": {
		fields: grammar.Fields{
			grammar.Int("tables", 2, gehl.MaxTables, ""),
			grammar.Int("log", 6, 30, ""),
			grammar.Int("ctr", 2, 8, ""),
			histField("hist"),
		},
		build: buildGehlSpec,
	},
	"composed": {
		stacked: true,
		fields:  tageCoreFields(false),
		build:   buildComposedSpec,
	},
}

// --- typed field readers (values are pre-normalised by ParseSpec) ---

func (s Spec) fieldInt(key string, def int) int {
	if v, ok := s.Field(key); ok {
		n, _ := strconv.Atoi(v)
		return n
	}
	return def
}

func (s Spec) fieldBool(key string) bool {
	v, _ := s.Field(key)
	return v == "1"
}

func (s Spec) fieldHist(key string, defMin, defMax int) (int, int) {
	if v, ok := s.Field(key); ok {
		lo, hi, _ := strings.Cut(v, ":")
		l, _ := strconv.Atoi(lo)
		h, _ := strconv.Atoi(hi)
		return l, h
	}
	return defMin, defMax
}

// --- kind builders ---

// tageConfigFromSpec assembles the TAGE core a tage: or composed: spec
// describes. Defaults reproduce the paper's reference predictor exactly:
// with 12 tagged tables and no explicit log the reference size pattern is
// used, otherwise sizes are uniform; tag widths default to the reference
// min(5+i, 15) rule.
func tageConfigFromSpec(s Spec) tage.Config {
	tables := s.fieldInt("tables", 12)
	logs := make([]uint, tables)
	if v, ok := s.Field("log"); ok {
		l, _ := strconv.Atoi(v)
		for i := range logs {
			logs[i] = uint(l)
		}
	} else if tables == len(tage.Reference().TableLogs) {
		copy(logs, tage.Reference().TableLogs)
	} else {
		for i := range logs {
			logs[i] = 11
		}
	}
	tags := make([]uint, tables)
	if v, ok := s.Field("tag"); ok {
		t, _ := strconv.Atoi(v)
		for i := range tags {
			tags[i] = uint(t)
		}
	} else {
		for i := range tags {
			t := uint(5 + i + 1)
			if t > 15 {
				t = 15
			}
			tags[i] = t
		}
	}
	minH, maxH := s.fieldHist("hist", 6, 2000)
	cfg := tage.Config{
		TableLogs: logs,
		TagBits:   tags,
		MinHist:   minH,
		MaxHist:   maxH,
	}
	if v, ok := s.Field("bim"); ok {
		b, _ := strconv.Atoi(v)
		cfg.LogBimodal = uint(b)
	}
	if v, ok := s.Field("alloc"); ok {
		cfg.MaxAlloc, _ = strconv.Atoi(v)
	}
	if v, ok := s.Field("seed"); ok {
		cfg.Seed, _ = strconv.ParseUint(v, 10, 64)
	}
	cfg.UseIUM = s.fieldBool("ium")
	cfg.Interleaved = s.fieldBool("banked")
	return cfg
}

func buildTageSpec(s Spec) *Model {
	cfg := tageConfigFromSpec(s)
	if s.hasDelta {
		cfg = tage.Scale(cfg, s.delta)
	}
	cfg.Name = s.Canonical()
	return tageModel(cfg)
}

func buildGshareSpec(s Spec) *Model {
	log := s.fieldInt("log", 18)
	if s.hasDelta {
		log = clampInt(log+s.delta, 8, 30)
	}
	m := gshareModel(uint(log))
	// gshare derives its self-name from the rounded budget, which can
	// collide across distinct specs; the canonical spec is the identity.
	m.name = s.Canonical()
	return m
}

func buildGehlSpec(s Spec) *Model {
	log := s.fieldInt("log", 13)
	if s.hasDelta {
		log = clampInt(log+s.delta, 6, 30)
	}
	minH, maxH := s.fieldHist("hist", 6, 2000)
	m := gehlModel(gehl.Config{
		NumTables:  s.fieldInt("tables", 13),
		LogEntries: uint(log),
		CtrBits:    uint(s.fieldInt("ctr", 5)),
		MinHist:    minH,
		MaxHist:    maxH,
	})
	// Like gshare, gehl self-names by budget; the spec is the identity.
	m.name = s.Canonical()
	return m
}

func buildComposedSpec(s Spec) *Model {
	tcfg := tageConfigFromSpec(s)
	if s.hasDelta {
		tcfg = tage.Scale(tcfg, s.delta)
	}
	cfg := composed.Config{Name: s.Canonical(), Tage: tcfg}
	for _, p := range s.parts {
		switch p {
		case "ium":
			cfg.Tage.UseIUM = true
		case "loop":
			cfg.UseLoop = true
		case "gsc":
			cfg.UseSC = true
		case "lsc":
			cfg.UseLSC = true
		}
	}
	return composedModel(cfg)
}

func clampInt(v, min, max int) int {
	if v < min {
		return min
	}
	if v > max {
		return max
	}
	return v
}

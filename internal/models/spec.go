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

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/composed"
	"repro/internal/gehl"
	"repro/internal/tage"
)

// Spec is a parsed predictor configuration. The zero value is invalid;
// obtain one from ParseSpec (or derive one with WithField / WithDelta,
// which re-validate).
type Spec struct {
	kind     string      // spec kind, or a named-model identifier
	named    bool        // kind is a row of the named-model table
	parts    []string    // composed component stack, canonical order
	fields   []specField // explicitly-set fields, canonical order
	delta    int         // storage-budget exponent (2^delta)
	hasDelta bool        // spec carries a delta suffix (including @+0)
}

type specField struct{ key, val string }

// Kind returns the spec kind ("tage", "gshare", …) or, for named sugar,
// the model identifier.
func (s Spec) Kind() string { return s.kind }

// IsNamed reports whether the spec is one of the named-model sugars.
func (s Spec) IsNamed() bool { return s.named }

// Delta returns the storage-budget exponent and whether the spec carries
// one at all (an explicit "@+0" is present but zero).
func (s Spec) Delta() (int, bool) { return s.delta, s.hasDelta }

// Field returns the explicitly-set value of a field, if any.
func (s Spec) Field(key string) (string, bool) {
	for _, f := range s.fields {
		if f.key == key {
			return f.val, true
		}
	}
	return "", false
}

// Canonical returns the canonical spec string: parsing it back yields an
// identical spec, and every layer (cell keys, stores, diffs) uses this
// form as the model identity.
func (s Spec) Canonical() string {
	var b strings.Builder
	b.WriteString(s.kind)
	if !s.named {
		b.WriteByte(':')
		sep := false
		if len(s.parts) > 0 {
			b.WriteString(strings.Join(s.parts, "+"))
			sep = true
		}
		for _, f := range s.fields {
			if sep {
				b.WriteByte(',')
			}
			b.WriteString(f.key)
			b.WriteByte('=')
			b.WriteString(f.val)
			sep = true
		}
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
	def := kinds[base.kind]
	fd := def.field(key)
	if fd == nil {
		return Spec{}, fmt.Errorf("models: spec kind %q has no field %q (valid fields: %s)", base.kind, key, def.fieldKeys())
	}
	canon, err := fd.normalise(val)
	if err != nil {
		return Spec{}, fmt.Errorf("models: field %q: %w", key, err)
	}
	vals := make(map[string]string, len(base.fields)+1)
	for _, f := range base.fields {
		vals[f.key] = f.val
	}
	vals[key] = canon
	out := base
	out.fields = nil
	for _, fd := range def.fields {
		if v, ok := vals[fd.key]; ok {
			out.fields = append(out.fields, specField{fd.key, v})
		}
	}
	return out, nil
}

// Kinds lists the parameterised spec kinds in documentation order.
func Kinds() []string {
	return []string{"tage", "gshare", "gehl", "composed"}
}

// FieldSweepsAsRange reports whether a sweep of the field may use the
// inclusive lo:hi integer-range form: true only when every kind defining
// the key declares it a plain integer (fields whose values carry their
// own ':' — hist — or are non-numeric need explicit value lists).
// Derived from the field registry, so a future colon-valued field
// automatically opts out instead of misparsing as a range.
func FieldSweepsAsRange(key string) bool {
	found := false
	for _, def := range kinds {
		if fd := def.field(key); fd != nil {
			if !fd.intRange {
				return false
			}
			found = true
		}
	}
	return found
}

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
	items := strings.Split(body, ",")
	idx := 0
	if def.stacked {
		parts, err := parseStack(items[0])
		if err != nil {
			return Spec{}, fmt.Errorf("models: spec %q: %w", raw, err)
		}
		spec.parts = parts
		idx = 1
	}
	vals := make(map[string]string)
	for _, item := range items[idx:] {
		item = strings.TrimSpace(item)
		if item == "" {
			return Spec{}, fmt.Errorf("models: spec %q has an empty field (stray comma?)", raw)
		}
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return Spec{}, fmt.Errorf("models: spec %q: field %q is not key=value", raw, item)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		fd := def.field(k)
		if fd == nil {
			return Spec{}, fmt.Errorf("models: spec kind %q has no field %q (valid fields: %s)", kind, k, def.fieldKeys())
		}
		if _, dup := vals[k]; dup {
			return Spec{}, fmt.Errorf("models: spec %q sets field %q twice", raw, k)
		}
		canon, err := fd.normalise(v)
		if err != nil {
			return Spec{}, fmt.Errorf("models: spec %q: field %q: %w", raw, k, err)
		}
		vals[k] = canon
	}
	for _, fd := range def.fields {
		if v, ok := vals[fd.key]; ok {
			spec.fields = append(spec.fields, specField{fd.key, v})
		}
	}
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

// SplitList splits a comma-separated model list the spec-aware way: a
// comma starts a new spec only when what follows looks like one (a named
// model, optionally @delta, or a "kind:" prefix); otherwise it continues
// the previous spec's field list — so one flag value can carry
// multi-field specs: "tage:tables=9,hist=6:500,gshare:log=14" is two
// specs, not three. Empty segments are dropped.
func SplitList(s string) []string {
	var out []string
	for _, seg := range strings.Split(s, ",") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if len(out) > 0 && !startsSpec(seg) {
			out[len(out)-1] += "," + seg
			continue
		}
		out = append(out, seg)
	}
	return out
}

// startsSpec reports whether a comma-separated segment begins a new
// model spec rather than continuing the previous one's fields (which
// are always key=value pairs).
func startsSpec(seg string) bool {
	if kind, _, ok := strings.Cut(seg, ":"); ok {
		return kinds[strings.TrimSpace(kind)] != nil
	}
	name := seg
	if at := strings.LastIndexByte(name, '@'); at >= 0 {
		name = name[:at]
	}
	return lookup(strings.TrimSpace(name)) != nil
}

// SweepSpecs expands one spec field across values for every base spec —
// the `bpbench -sweep` axis: each base is rewritten per value via
// WithField and returned in canonical form, erroring on duplicate
// resulting configurations (which would collide on cell keys).
func SweepSpecs(bases []string, key string, values []string) ([]string, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("models: sweep of %q has no values", key)
	}
	var out []string
	seen := make(map[string]bool)
	for _, b := range bases {
		spec, err := ParseSpec(b)
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
				return nil, fmt.Errorf("models: sweep %s over %q produces duplicate spec %q", key, b, c)
			}
			seen[c] = true
			out = append(out, c)
		}
	}
	return out, nil
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

type fieldDef struct {
	key string
	// intRange marks plain-integer fields, whose sweep values may be
	// written as an inclusive lo:hi range; fields whose values carry
	// their own ':' (hist) or are non-numeric must use explicit lists.
	intRange  bool
	normalise func(string) (string, error)
}

type kindDef struct {
	stacked bool // body starts with a '+'-joined component stack
	fields  []fieldDef
	build   func(Spec) *Model
}

func (d *kindDef) field(key string) *fieldDef {
	for i := range d.fields {
		if d.fields[i].key == key {
			return &d.fields[i]
		}
	}
	return nil
}

func (d *kindDef) fieldKeys() string {
	keys := make([]string, len(d.fields))
	for i, f := range d.fields {
		keys[i] = f.key
	}
	return strings.Join(keys, ", ")
}

func intField(key string, min, max int) fieldDef {
	return fieldDef{key: key, intRange: true, normalise: func(v string) (string, error) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return "", fmt.Errorf("%q is not an integer", v)
		}
		if n < min || n > max {
			return "", fmt.Errorf("%d out of range [%d, %d]", n, min, max)
		}
		return strconv.Itoa(n), nil
	}}
}

func uintField(key string) fieldDef {
	return fieldDef{key: key, normalise: func(v string) (string, error) {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return "", fmt.Errorf("%q is not an unsigned integer", v)
		}
		return strconv.FormatUint(n, 10), nil
	}}
}

func boolField(key string) fieldDef {
	return fieldDef{key: key, normalise: func(v string) (string, error) {
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

func histField(key string) fieldDef {
	return fieldDef{key: key, normalise: func(v string) (string, error) {
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
func tageCoreFields(withIUM bool) []fieldDef {
	fs := []fieldDef{
		intField("tables", 1, tage.MaxTables),
		intField("log", 6, 30),
		intField("tag", 4, 16),
		histField("hist"),
		intField("bim", 8, 30),
		intField("alloc", 1, 32),
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
		fields: []fieldDef{intField("log", 8, 30)},
		build:  buildGshareSpec,
	},
	"gehl": {
		fields: []fieldDef{
			intField("tables", 2, gehl.MaxTables),
			intField("log", 6, 30),
			intField("ctr", 2, 8),
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

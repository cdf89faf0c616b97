package repro

import "repro/internal/models"

// The declarative model API: the model-spec grammar and the named-model
// table of internal/models, exposed through the facade. A ModelSpec is a
// parseable, canonically stringable description of a predictor
// configuration, and the canonical string is the model's identity in
// every layer: cell keys, stores, diffs and the lease wire. See the
// grammar in internal/models/spec.go and the README "Model specs"
// section.

// ModelSpec is a parsed predictor configuration. The zero value is
// invalid; obtain one from ParseSpec (or derive one with WithField /
// WithDelta, which re-validate).
type ModelSpec = models.Spec

// ParseSpec parses a model-spec string: a named model ("tage-lsc"), a
// parameterised configuration ("tage:tables=9,hist=6:2000"), either
// optionally scaled by a storage delta ("gshare:log=20@+2"). Errors name
// the offending field and the valid alternatives.
func ParseSpec(s string) (ModelSpec, error) { return models.ParseSpec(s) }

// LookupModel resolves a model identifier — a named model or any model
// spec — to a fresh Model, with an error naming the valid identifiers
// and spec kinds on a miss: ParseSpec then Build.
func LookupModel(name string) (*Model, error) {
	spec, err := ParseSpec(name)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

// ModelNames lists the named models in sorted order.
func ModelNames() []string { return models.Names() }

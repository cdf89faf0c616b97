package repro

import (
	"repro/internal/harness"
	"repro/internal/models"
)

// BenchModelResolver rebuilds a model from a spec string, the way a farm
// worker rebuilds the cells of a lease.
type BenchModelResolver = harness.ModelResolver

// BenchResolver is the resolver coordinators and workers rebuild wire
// jobs with: internal/models' Resolve, the one BenchModels uses.
func BenchResolver() BenchModelResolver { return models.Resolve }

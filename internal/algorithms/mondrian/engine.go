package mondrian

import (
	"context"
	"errors"
	"fmt"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
)

// adapter plugs Mondrian into the engine registry (see package engine). It
// owns the algorithm's capability metadata and its table-independent
// validation, so no other layer needs to know Mondrian exists.
type adapter struct{}

func init() { engine.Register(adapter{}) }

func (adapter) Name() string { return "mondrian" }

func (adapter) Describe() engine.Info {
	return engine.Info{
		Name:         "mondrian",
		Description:  "multidimensional greedy partitioning (default)",
		Kind:         engine.Microdata,
		Parallel:     true,
		CostExponent: 1,
		Default:      true,
		Criteria: []string{
			policy.KAnonymity, policy.AlphaKAnonymity, policy.DistinctLDiversity,
			policy.EntropyLDiversity, policy.RecursiveCLDiversity, policy.TCloseness,
		},
		Parameters: []engine.Param{
			{Name: "k", Type: "int", Required: true, Default: 10, Description: "minimum partition size"},
			{Name: "quasi_identifiers", Type: "[]string", Description: "attributes to partition on (schema QI columns when empty)"},
			{Name: "l", Type: "int", Description: "l-diversity parameter (0 disables)"},
			{Name: "diversity_mode", Flag: "diversity", Type: "string", Description: "l-diversity variant: distinct|entropy|recursive"},
			{Name: "c", Type: "float", Description: "recursive (c,l)-diversity constant"},
			{Name: "t", Type: "float", Description: "t-closeness parameter (0 disables)"},
			{Name: "sensitive", Type: "string", Description: "sensitive attribute for l/t criteria"},
			{Name: "strict_mondrian", Flag: "strict", Type: "bool", Description: "strict partitioning (never separate equal values)"},
			{Name: "workers", Type: "int", Description: "partition worker pool bound (0 = GOMAXPROCS)"},
		},
	}
}

func (adapter) Validate(spec engine.Spec) error {
	if err := engine.ValidateCriteria(adapter{}.Describe(), spec); err != nil {
		return err
	}
	if spec.K < 1 {
		return fmt.Errorf("mondrian: K must be at least 1 (got %d)", spec.K)
	}
	return nil
}

func (adapter) Run(ctx context.Context, t *dataset.Table, spec engine.Spec) (*engine.Result, error) {
	res, err := AnonymizeContext(ctx, t, Config{
		K:                spec.K,
		QuasiIdentifiers: spec.QuasiIdentifiers,
		Hierarchies:      spec.Hierarchies,
		Strict:           spec.Strict,
		Extra:            spec.Extra,
		Workers:          spec.Workers,
		Progress:         engine.Monotone(spec.Progress),
	})
	if err != nil {
		return nil, classify(err)
	}
	return &engine.Result{Table: res.Table}, nil
}

// classify wraps the package's sentinel errors with the engine's error
// classes so the service layer can map them without importing this package.
func classify(err error) error {
	switch {
	case errors.Is(err, ErrConfig):
		return engine.ConfigError(err)
	case errors.Is(err, ErrUnsatisfiable):
		return engine.UnsatisfiableError(err)
	}
	return err
}

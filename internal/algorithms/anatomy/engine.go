package anatomy

import (
	"context"
	"errors"
	"fmt"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
)

// adapter plugs Anatomy into the engine registry (see package engine).
type adapter struct{}

func init() { engine.Register(adapter{}) }

func (adapter) Name() string { return "anatomy" }

func (adapter) Describe() engine.Info {
	return engine.Info{
		Name:         "anatomy",
		Description:  "l-diverse bucketization into QIT/ST (no generalization)",
		Kind:         engine.Bucketized,
		CostExponent: 1,
		Criteria:     []string{policy.DistinctLDiversity},
		Parameters: []engine.Param{
			{Name: "l", Type: "int", Required: true, Description: "distinct sensitive values per bucket (>= 2)"},
			{Name: "sensitive", Type: "string", Description: "sensitive attribute (schema's first sensitive column when empty)"},
			{Name: "quasi_identifiers", Type: "[]string", Description: "columns published in the QIT (schema QI columns when empty)"},
		},
	}
}

func (adapter) Validate(spec engine.Spec) error {
	if err := engine.ValidateCriteria(adapter{}.Describe(), spec); err != nil {
		return err
	}
	if spec.L < 2 {
		return fmt.Errorf("anatomy requires L >= 2 (got %d)", spec.L)
	}
	return nil
}

func (adapter) Run(ctx context.Context, t *dataset.Table, spec engine.Spec) (*engine.Result, error) {
	res, err := AnonymizeContext(ctx, t, Config{
		L:                spec.L,
		Sensitive:        spec.Sensitive,
		QuasiIdentifiers: spec.QuasiIdentifiers,
		Progress:         engine.Monotone(spec.Progress),
	})
	if err != nil {
		return nil, classify(err)
	}
	return &engine.Result{QIT: res.QIT, ST: res.ST}, nil
}

// classify wraps the package's sentinel errors with the engine's error
// classes so the service layer can map them without importing this package.
func classify(err error) error {
	switch {
	case errors.Is(err, ErrConfig):
		return engine.ConfigError(err)
	case errors.Is(err, ErrEligibility):
		return engine.UnsatisfiableError(err)
	}
	return err
}

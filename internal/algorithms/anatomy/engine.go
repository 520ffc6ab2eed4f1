package anatomy

import (
	"context"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
)

// adapter plugs Anatomy into the engine registry (see package engine).
type adapter struct{}

func init() { engine.Register(adapter{}) }

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

func (adapter) Run(ctx context.Context, t *dataset.Table, spec engine.Spec) (*engine.Result, error) {
	res, err := AnonymizeContext(ctx, t, Config{
		L:                spec.L,
		Sensitive:        spec.Sensitive,
		QuasiIdentifiers: spec.QuasiIdentifiers,
		Progress:         engine.Monotone(spec.Progress),
	})
	if err != nil {
		return nil, err
	}
	return &engine.Result{QIT: res.QIT, ST: res.ST}, nil
}

package datafly

import (
	"context"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
)

// adapter plugs Datafly into the engine registry (see package engine).
type adapter struct{}

func init() { engine.Register(adapter{}) }

func (adapter) Describe() engine.Info {
	return engine.Info{
		Name:                "datafly",
		Description:         "greedy full-domain generalization with suppression",
		Kind:                engine.Microdata,
		FullDomain:          true,
		RequiresHierarchies: true,
		CostExponent:        1,
		Criteria:            []string{policy.KAnonymity},
		Parameters: []engine.Param{
			{Name: "k", Type: "int", Required: true, Default: 10, Description: "minimum equivalence-class size"},
			{Name: "quasi_identifiers", Type: "[]string", Description: "attributes to generalize (schema QI columns when empty)"},
			{Name: "max_suppression", Type: "float", Default: 0.02, Description: "maximum fraction of suppressed records"},
		},
	}
}

func (adapter) Run(ctx context.Context, t *dataset.Table, spec engine.Spec) (*engine.Result, error) {
	res, err := AnonymizeContext(ctx, t, Config{
		K:                spec.K,
		QuasiIdentifiers: spec.QuasiIdentifiers,
		Hierarchies:      spec.Hierarchies,
		MaxSuppression:   spec.MaxSuppression,
		Progress:         engine.Monotone(spec.Progress),
	})
	if err != nil {
		return nil, err
	}
	return &engine.Result{Table: res.Table, Node: res.Node, SuppressedRows: res.SuppressedRows}, nil
}

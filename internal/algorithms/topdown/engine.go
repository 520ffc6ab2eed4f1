package topdown

import (
	"context"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
)

// adapter plugs top-down specialization into the engine registry (see
// package engine).
type adapter struct{}

func init() { engine.Register(adapter{}) }

func (adapter) Describe() engine.Info {
	return engine.Info{
		Name:                "topdown",
		Description:         "top-down specialization from full generalization",
		Kind:                engine.Microdata,
		FullDomain:          true,
		RequiresHierarchies: true,
		Parallel:            true,
		CostExponent:        1,
		Criteria: []string{
			policy.KAnonymity, policy.AlphaKAnonymity, policy.DistinctLDiversity,
			policy.EntropyLDiversity, policy.RecursiveCLDiversity, policy.TCloseness,
		},
		Parameters: []engine.Param{
			{Name: "k", Type: "int", Required: true, Default: 10, Description: "minimum equivalence-class size"},
			{Name: "quasi_identifiers", Type: "[]string", Description: "attributes to generalize (schema QI columns when empty)"},
			{Name: "l", Type: "int", Description: "l-diversity parameter (0 disables)"},
			{Name: "diversity_mode", Flag: "diversity", Type: "string", Description: "l-diversity variant: distinct|entropy|recursive"},
			{Name: "c", Type: "float", Description: "recursive (c,l)-diversity constant"},
			{Name: "t", Type: "float", Description: "t-closeness parameter (0 disables)"},
			{Name: "sensitive", Type: "string", Description: "sensitive attribute for l/t criteria"},
			{Name: "workers", Type: "int", Description: "candidate-evaluation worker pool bound (0 = GOMAXPROCS)"},
		},
	}
}

func (adapter) Run(ctx context.Context, t *dataset.Table, spec engine.Spec) (*engine.Result, error) {
	res, err := AnonymizeContext(ctx, t, Config{
		K:                spec.K,
		QuasiIdentifiers: spec.QuasiIdentifiers,
		Hierarchies:      spec.Hierarchies,
		Extra:            spec.Extra,
		Workers:          spec.Workers,
		Progress:         engine.Monotone(spec.Progress),
	})
	if err != nil {
		return nil, err
	}
	return &engine.Result{Table: res.Table, Node: res.Node}, nil
}

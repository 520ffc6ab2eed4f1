package mondrian

import (
	"context"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
)

// adapter plugs Mondrian into the engine registry (see package engine). Its
// capability metadata is the algorithm's whole contract, so no other layer
// needs to know Mondrian exists.
type adapter struct{}

func init() { engine.Register(adapter{}) }

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
		return nil, err
	}
	return &engine.Result{Table: res.Table, Groups: res.Groups}, nil
}

package kmember

import (
	"context"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
)

// adapter plugs k-member clustering into the engine registry (see package
// engine).
type adapter struct{}

func init() { engine.Register(adapter{}) }

func (adapter) Describe() engine.Info {
	return engine.Info{
		Name:         "kmember",
		Description:  "greedy clustering anonymization",
		Kind:         engine.Microdata,
		Parallel:     true,
		CostExponent: 2,
		Criteria:     []string{policy.KAnonymity},
		Parameters: []engine.Param{
			{Name: "k", Type: "int", Required: true, Default: 10, Description: "minimum cluster size"},
			{Name: "quasi_identifiers", Type: "[]string", Description: "attributes for distance and recoding (schema QI columns when empty)"},
			{Name: "workers", Type: "int", Description: "record-scan worker pool bound (0 = GOMAXPROCS)"},
		},
	}
}

func (adapter) Run(ctx context.Context, t *dataset.Table, spec engine.Spec) (*engine.Result, error) {
	res, err := AnonymizeContext(ctx, t, Config{
		K:                spec.K,
		QuasiIdentifiers: spec.QuasiIdentifiers,
		Hierarchies:      spec.Hierarchies,
		Workers:          spec.Workers,
		Progress:         engine.Monotone(spec.Progress),
	})
	if err != nil {
		return nil, err
	}
	return &engine.Result{Table: res.Table, Groups: res.Groups}, nil
}

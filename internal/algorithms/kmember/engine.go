package kmember

import (
	"context"
	"errors"
	"fmt"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
)

// adapter plugs k-member clustering into the engine registry (see package
// engine).
type adapter struct{}

func init() { engine.Register(adapter{}) }

func (adapter) Name() string { return "kmember" }

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

func (adapter) Validate(spec engine.Spec) error {
	if err := engine.ValidateCriteria(adapter{}.Describe(), spec); err != nil {
		return err
	}
	if spec.K < 1 {
		return fmt.Errorf("kmember: K must be at least 1 (got %d)", spec.K)
	}
	return nil
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
	case errors.Is(err, ErrTooFewRecords):
		return engine.UnsatisfiableError(err)
	}
	return err
}

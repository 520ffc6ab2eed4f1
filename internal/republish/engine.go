package republish

import (
	"context"
	"errors"
	"fmt"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
)

// adapter plugs the m-invariant publisher into the engine registry as the
// "republish" algorithm. A one-shot run publishes release 1 of a fresh
// history (the stateless view clients get through POST /v1/anonymize); the
// reconciler drives the stateful sequential mode directly, publishing each
// dataset generation from the previous release's Index (Resume), or from a
// validated Restore of the stored history when it has none.
type adapter struct{}

func init() { engine.Register(adapter{}) }

func (adapter) Name() string { return "republish" }

func (adapter) Describe() engine.Info {
	return engine.Info{
		Name:        "republish",
		Description: "m-invariant bucketization for sequential re-publication (QIT/ST with counterfeit padding)",
		Kind:        engine.Bucketized,
		Criteria:    []string{policy.MInvariance},
		Parameters: []engine.Param{
			{Name: "policy", Type: "object", Required: true, Description: "policy document carrying the m-invariance criterion (m >= 2, id column)"},
			{Name: "sensitive", Type: "string", Description: "sensitive attribute (schema's first sensitive column when empty)"},
			{Name: "quasi_identifiers", Type: "[]string", Description: "columns published in the QIT (schema QI columns when empty)"},
		},
	}
}

// criterion extracts the m-invariance criterion the run is driven by.
func criterion(spec engine.Spec) (policy.Criterion, error) {
	if spec.Policy == nil {
		return policy.Criterion{}, engine.ConfigError(fmt.Errorf("republish: a policy with an %s criterion is required (flat parameters cannot express it)", policy.MInvariance))
	}
	c, ok := spec.Policy.Find(policy.MInvariance)
	if !ok {
		return policy.Criterion{}, engine.ConfigError(fmt.Errorf("republish: the policy must carry an %s criterion", policy.MInvariance))
	}
	return c, nil
}

func (adapter) Validate(spec engine.Spec) error {
	if err := engine.ValidateCriteria(adapter{}.Describe(), spec); err != nil {
		return err
	}
	c, err := criterion(spec)
	if err != nil {
		return err
	}
	if _, err := NewPublisher(publisherConfig(c, spec)); err != nil {
		return classify(err)
	}
	return nil
}

func (adapter) Run(ctx context.Context, t *dataset.Table, spec engine.Spec) (*engine.Result, error) {
	c, err := criterion(spec)
	if err != nil {
		return nil, err
	}
	cfg := publisherConfig(c, spec)
	cfg.Progress = engine.Monotone(spec.Progress)
	p, err := NewPublisher(cfg)
	if err != nil {
		return nil, classify(err)
	}
	rel, err := p.PublishContext(ctx, t)
	if err != nil {
		return nil, classify(err)
	}
	return &engine.Result{QIT: rel.QIT, ST: rel.ST}, nil
}

// publisherConfig maps a criterion plus the run spec onto the publisher's
// configuration. The criterion's sensitive attribute wins over the spec's:
// the policy layer resolves defaults into the criterion before the run.
func publisherConfig(c policy.Criterion, spec engine.Spec) Config {
	sensitive := c.Sensitive
	if sensitive == "" {
		sensitive = spec.Sensitive
	}
	return Config{M: c.M, ID: c.ID, Sensitive: sensitive, QuasiIdentifiers: spec.QuasiIdentifiers}
}

// classify wraps the package's sentinel errors with the engine's error
// classes so the service layer can map them without importing this package.
func classify(err error) error {
	switch {
	case errors.Is(err, ErrConfig), errors.Is(err, ErrUnknownID):
		return engine.ConfigError(err)
	case errors.Is(err, ErrEligibility):
		return engine.UnsatisfiableError(err)
	}
	return err
}

package republish

import (
	"context"

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

// Run publishes t as release 1 of a fresh history under the policy's
// m-invariance criterion. engine.Validate checks the policy first; a direct
// caller without one reaches NewPublisher with m = 0, which rejects it as
// ErrConfig. The criterion's sensitive attribute wins over the spec's: the
// policy layer resolves defaults into the criterion before the run.
func (adapter) Run(ctx context.Context, t *dataset.Table, spec engine.Spec) (*engine.Result, error) {
	var c policy.Criterion
	if spec.Policy != nil {
		c, _ = spec.Policy.Find(policy.MInvariance)
	}
	if c.Sensitive == "" {
		c.Sensitive = spec.Sensitive
	}
	p, err := NewPublisher(Config{M: c.M, ID: c.ID, Sensitive: c.Sensitive, QuasiIdentifiers: spec.QuasiIdentifiers,
		Progress: engine.Monotone(spec.Progress)})
	if err != nil {
		return nil, err
	}
	rel, err := p.PublishContext(ctx, t)
	if err != nil {
		return nil, err
	}
	return &engine.Result{QIT: rel.QIT, ST: rel.ST}, nil
}

package republish

import (
	"context"
	"errors"
	"testing"

	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/synth"
)

// TestAdapterRunRejectsBadConfig checks that a direct engine caller, who
// skips engine.Validate, still gets a classified configuration error from
// Run when the spec carries no usable m-invariance criterion.
func TestAdapterRunRejectsBadConfig(t *testing.T) {
	tbl := synth.Hospital(40, 1)
	kOnly := &policy.Policy{Criteria: []policy.Criterion{{Type: policy.KAnonymity, K: 5}}}
	for _, spec := range []engine.Spec{{}, {Policy: kOnly}} {
		_, err := adapter{}.Run(context.Background(), tbl, spec)
		if !errors.Is(err, ErrConfig) || !errors.Is(err, engine.ErrConfig) {
			t.Errorf("Run(%+v) error = %v, want ErrConfig of class engine.ErrConfig", spec.Policy, err)
		}
	}
}

package engine_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/policy"
)

// examplePolicies seeds FuzzPolicyValidate: the policy documents README.md
// and docs/API.md show, one per criterion type, and a few near misses the
// strict decoder must refuse.
var examplePolicies = []string{
	`{"version": 1, "criteria": [{"type": "k-anonymity", "k": 10}, {"type": "t-closeness", "t": 0.2, "sensitive": "disease"}], "suppression": {"max_fraction": 0.02}}`,
	`{"criteria": [{"type": "k-anonymity", "k": 10}, {"type": "distinct-l-diversity", "l": 3}]}`,
	`{"criteria": [{"type": "m-invariance", "m": 2, "id": "name"}]}`,
	`{"criteria": [{"type": "alpha-k-anonymity", "k": 5, "alpha": 0.5, "sensitive": "salary"}]}`,
	`{"criteria": [{"type": "entropy-l-diversity", "l": 1.5}, {"type": "recursive-cl-diversity", "l": 2}]}`,
	`{"criteria": [{"type": "t-closeness", "t": 0.3, "ordered": true}], "suppression": {"max_fraction": 0}}`,
	`{"criteria": []}`,
	`{"version": 2, "criteria": [{"type": "k-anonymity", "k": 1}]}`,
	`{"criteria": [{"type": "k-anonymity", "k": 5, "t": 0.2}]}`,
}

// FuzzPolicyValidate drives arbitrary bytes through the policy layer into
// every registered algorithm's contract check: policy.Parse, Canonical, then
// engine.Validate with and without hierarchies. Nothing may panic, and an
// accepted policy must re-encode and re-parse to identical bytes and to the
// same verdict from every algorithm.
func FuzzPolicyValidate(f *testing.F) {
	for _, s := range examplePolicies {
		f.Add([]byte(s))
	}
	infos := engine.Infos()
	hs := &hierarchy.Set{}
	verdicts := func(pol *policy.Policy) string {
		var out bytes.Buffer
		for _, info := range infos {
			for _, h := range []*hierarchy.Set{nil, hs} {
				spec := engine.Spec{Policy: pol, K: pol.KAnonymityK(), L: pol.BucketL(),
					MaxSuppression: pol.SuppressionBudget(), Hierarchies: h}
				fmt.Fprintf(&out, "%s/%v: %v\n", info.Name, h != nil, engine.Validate(info, spec))
			}
		}
		return out.String()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := policy.Parse(data)
		if err != nil {
			return
		}
		canon, err := p.Canonical()
		if err != nil {
			return
		}
		want := verdicts(canon)
		enc, err := canon.Encode()
		if err != nil {
			t.Fatalf("accepted policy does not encode: %v", err)
		}
		again, err := policy.Parse(enc)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", enc, err)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatalf("re-encode of %s: %v", enc, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not stable:\n%s\n%s", enc, enc2)
		}
		if got := verdicts(again); got != want {
			t.Fatalf("verdicts changed across re-parse:\n%s\n%s", want, got)
		}
	})
}

package engine_test

import (
	"errors"
	"testing"

	"github.com/ppdp/ppdp/internal/engine"
	_ "github.com/ppdp/ppdp/internal/engine/all"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/policy"
)

// TestCriteriaMetadata checks every registered algorithm's criterion
// declarations: at least one criterion, every type known to the policy
// package, and no duplicates — the capability cards on GET /v1/algorithms
// render these verbatim.
func TestCriteriaMetadata(t *testing.T) {
	known := make(map[string]bool)
	for _, typ := range policy.Types() {
		known[typ] = true
	}
	for _, info := range engine.Infos() {
		if len(info.Criteria) == 0 {
			t.Errorf("%s: declares no supported criteria", info.Name)
		}
		seen := make(map[string]bool)
		for _, typ := range info.Criteria {
			if !known[typ] {
				t.Errorf("%s: unknown criterion type %q", info.Name, typ)
			}
			if seen[typ] {
				t.Errorf("%s: duplicate criterion type %q", info.Name, typ)
			}
			seen[typ] = true
		}
		// Every algorithm that enforces a class-size bound supports
		// k-anonymity; the ones that do not bucketize instead and support
		// the criterion their bucketization enforces (anatomy's
		// distinct-l-diversity, republish's m-invariance).
		if !info.SupportsCriterion(policy.KAnonymity) && !info.SupportsCriterion(policy.DistinctLDiversity) &&
			!info.SupportsCriterion(policy.MInvariance) {
			t.Errorf("%s: supports neither k-anonymity nor a bucketization criterion", info.Name)
		}
	}
}

// TestValidate checks the metadata-driven contract check in its order:
// unsupported criterion types first, then each Required parameter, then
// hierarchies. Every failure is a ConfigError naming the algorithm, and a
// nil policy passes the criteria check (direct engine users).
func TestValidate(t *testing.T) {
	canon := func(cs ...policy.Criterion) *policy.Policy {
		pol, err := (&policy.Policy{Criteria: cs}).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	kt := canon(policy.Criterion{Type: policy.KAnonymity, K: 5}, policy.Criterion{Type: policy.TCloseness, T: 0.2, Sensitive: "d"})
	kOnly := canon(policy.Criterion{Type: policy.KAnonymity, K: 5})
	m := canon(policy.Criterion{Type: policy.MInvariance, M: 2, ID: "id"})
	hs := &hierarchy.Set{}
	kInfo := engine.Info{Name: "fake", Criteria: []string{policy.KAnonymity},
		RequiresHierarchies: true, Parameters: []engine.Param{{Name: "k", Required: true}}}
	lInfo := engine.Info{Name: "bucket", Criteria: []string{policy.DistinctLDiversity},
		Parameters: []engine.Param{{Name: "l", Required: true}}}
	pInfo := engine.Info{Name: "seq", Criteria: []string{policy.MInvariance, policy.KAnonymity},
		Parameters: []engine.Param{{Name: "policy", Required: true}}}
	cases := []struct {
		name string
		info engine.Info
		spec engine.Spec
		want string // "" when the spec is valid
	}{
		{"unsupported criterion before k", kInfo, engine.Spec{Policy: kt},
			`fake: criterion "t-closeness" is not supported (supported: [k-anonymity])`},
		{"k missing", kInfo, engine.Spec{Hierarchies: hs}, "fake: K must be at least 1 (got 0)"},
		{"k before hierarchies", kInfo, engine.Spec{K: -1}, "fake: K must be at least 1 (got -1)"},
		{"hierarchies missing", kInfo, engine.Spec{K: 5, Policy: kOnly}, "fake: algorithm requires generalization hierarchies"},
		{"k valid", kInfo, engine.Spec{K: 5, Policy: kOnly, Hierarchies: hs}, ""},
		{"nil policy passes criteria", kInfo, engine.Spec{K: 5, Hierarchies: hs}, ""},
		{"l missing", lInfo, engine.Spec{L: 1}, "bucket requires L >= 2 (got 1)"},
		{"l valid", lInfo, engine.Spec{L: 2}, ""},
		{"policy missing", pInfo, engine.Spec{},
			"seq: a policy with an m-invariance or k-anonymity criterion is required (flat parameters cannot express it)"},
		{"policy valid", pInfo, engine.Spec{Policy: m}, ""},
		{"policy without a declared criterion", pInfo, engine.Spec{Policy: &policy.Policy{}},
			"seq: the policy must carry an m-invariance or k-anonymity criterion"},
	}
	for _, c := range cases {
		err := engine.Validate(c.info, c.spec)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: Validate = %v, want nil", c.name, err)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%s: Validate = %v, want %q", c.name, err, c.want)
		case c.want != "" && !errors.Is(err, engine.ErrConfig):
			t.Errorf("%s: Validate = %v, not an ErrConfig", c.name, err)
		}
	}

	// Against a real card: datafly enforces only k-anonymity, so a
	// t-closeness policy fails as a ConfigError.
	alg, err := engine.Lookup("datafly")
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Validate(alg.Describe(), engine.Spec{K: 5, Policy: kt, Hierarchies: hs}); !errors.Is(err, engine.ErrConfig) {
		t.Errorf("datafly t-closeness policy error = %v, want ErrConfig", err)
	}
}

// TestFlatPolicy checks the flat-parameter rule both edges share: a
// declared default fills k or max_suppression only when the caller did not
// supply it and the algorithm declares the parameter.
func TestFlatPolicy(t *testing.T) {
	describe := func(name string) engine.Info {
		alg, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return alg.Describe()
	}
	cases := []struct {
		alg             string
		flat            policy.Flat
		haveK, haveSupp bool
		want            string
	}{
		{"mondrian", policy.Flat{}, false, false, "k-anonymity(k=10)"},
		{"mondrian", policy.Flat{K: 5, MaxSuppression: 0.1}, true, true, "k-anonymity(k=5) [suppress<=0.1]"},
		{"datafly", policy.Flat{}, false, false, "k-anonymity(k=10) [suppress<=0.02]"},
		{"datafly", policy.Flat{K: 5}, true, true, "k-anonymity(k=5)"},
		{"anatomy", policy.Flat{L: 3}, false, false, "distinct-l-diversity(l=3)"},
		{"anatomy", policy.Flat{L: 3, K: 5}, true, false, "k-anonymity(k=5) + distinct-l-diversity(l=3)"},
	}
	for _, c := range cases {
		_, declared, err := describe(c.alg).FlatPolicy(c.flat, c.haveK, c.haveSupp)
		if err != nil {
			t.Fatalf("%s %+v: %v", c.alg, c.flat, err)
		}
		if got := declared.Describe(); got != c.want {
			t.Errorf("%s %+v: declared %q, want %q", c.alg, c.flat, got, c.want)
		}
	}
	// A supplied k of 0 stays 0: no criterion, so Validate reports the
	// missing k instead of a default hiding it.
	enforced, declared, err := describe("mondrian").FlatPolicy(policy.Flat{}, true, false)
	if err != nil || enforced != nil || declared != nil {
		t.Errorf("explicit k=0: FlatPolicy = %v, %v, %v; want no policy", enforced, declared, err)
	}
}

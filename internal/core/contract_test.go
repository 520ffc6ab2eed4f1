package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/ppdp/ppdp/internal/algorithms/anatomy"
	"github.com/ppdp/ppdp/internal/algorithms/datafly"
	"github.com/ppdp/ppdp/internal/algorithms/incognito"
	"github.com/ppdp/ppdp/internal/algorithms/kmember"
	"github.com/ppdp/ppdp/internal/algorithms/mondrian"
	"github.com/ppdp/ppdp/internal/algorithms/samarati"
	"github.com/ppdp/ppdp/internal/algorithms/topdown"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/republish"
	"github.com/ppdp/ppdp/internal/synth"
)

// contractCriterion is a valid criterion of each type, for building a
// policy that names exactly one type.
func contractCriterion(typ string) policy.Criterion {
	switch typ {
	case policy.KAnonymity:
		return policy.Criterion{Type: typ, K: 5}
	case policy.AlphaKAnonymity:
		return policy.Criterion{Type: typ, K: 5, Alpha: 0.5}
	case policy.DistinctLDiversity, policy.EntropyLDiversity:
		return policy.Criterion{Type: typ, L: 2}
	case policy.RecursiveCLDiversity:
		return policy.Criterion{Type: typ, L: 2, C: 3}
	case policy.TCloseness:
		return policy.Criterion{Type: typ, T: 0.2}
	case policy.MInvariance:
		return policy.Criterion{Type: typ, M: 2, ID: "name"}
	}
	panic("unknown criterion type " + typ)
}

// contractErrors pins the exact text core.New reports for configurations
// every algorithm must reject before touching data, keyed by
// "<algorithm>/<case>". The texts come from each algorithm's declared
// metadata (required parameters, hierarchies, supported criteria), so a
// change to how the contract is enforced must not change a byte of them.
var contractErrors = map[string]string{
	"mondrian/nil-policy":             "core: invalid configuration: mondrian: K must be at least 1 (got 0)",
	"mondrian/nil-policy+hierarchies": "core: invalid configuration: mondrian: K must be at least 1 (got 0)",
	"mondrian/unsupported":            `core: invalid configuration: mondrian: criterion "m-invariance" is not supported (supported: [k-anonymity alpha-k-anonymity distinct-l-diversity entropy-l-diversity recursive-cl-diversity t-closeness])`,

	"anatomy/nil-policy":             "core: invalid configuration: anatomy requires L >= 2 (got 0)",
	"anatomy/nil-policy+hierarchies": "core: invalid configuration: anatomy requires L >= 2 (got 0)",
	"anatomy/k-only":                 `core: invalid configuration: anatomy: criterion "k-anonymity" is not supported (supported: [distinct-l-diversity])`,
	"anatomy/unsupported":            `core: invalid configuration: anatomy: criterion "k-anonymity" is not supported (supported: [distinct-l-diversity])`,

	"datafly/nil-policy":             "core: invalid configuration: datafly: K must be at least 1 (got 0)",
	"datafly/nil-policy+hierarchies": "core: invalid configuration: datafly: K must be at least 1 (got 0)",
	"datafly/k-only":                 "core: invalid configuration: datafly: algorithm requires generalization hierarchies",
	"datafly/unsupported":            `core: invalid configuration: datafly: criterion "alpha-k-anonymity" is not supported (supported: [k-anonymity])`,

	"incognito/nil-policy":             "core: invalid configuration: incognito: K must be at least 1 (got 0)",
	"incognito/nil-policy+hierarchies": "core: invalid configuration: incognito: K must be at least 1 (got 0)",
	"incognito/k-only":                 "core: invalid configuration: incognito: algorithm requires generalization hierarchies",
	"incognito/unsupported":            `core: invalid configuration: incognito: criterion "m-invariance" is not supported (supported: [k-anonymity alpha-k-anonymity distinct-l-diversity entropy-l-diversity recursive-cl-diversity t-closeness])`,

	"kmember/nil-policy":             "core: invalid configuration: kmember: K must be at least 1 (got 0)",
	"kmember/nil-policy+hierarchies": "core: invalid configuration: kmember: K must be at least 1 (got 0)",
	"kmember/unsupported":            `core: invalid configuration: kmember: criterion "alpha-k-anonymity" is not supported (supported: [k-anonymity])`,

	"republish/nil-policy":             "core: invalid configuration: republish: a policy with an m-invariance criterion is required (flat parameters cannot express it)",
	"republish/nil-policy+hierarchies": "core: invalid configuration: republish: a policy with an m-invariance criterion is required (flat parameters cannot express it)",
	"republish/k-only":                 `core: invalid configuration: republish: criterion "k-anonymity" is not supported (supported: [m-invariance])`,
	"republish/unsupported":            `core: invalid configuration: republish: criterion "k-anonymity" is not supported (supported: [m-invariance])`,
	"republish/m-below-2":              "core: invalid configuration: policy: m-invariance: m must be at least 2 (got 1)",
	"republish/no-id":                  "core: invalid configuration: policy: m-invariance: an id column is required to track records across releases",

	"samarati/nil-policy":             "core: invalid configuration: samarati: K must be at least 1 (got 0)",
	"samarati/nil-policy+hierarchies": "core: invalid configuration: samarati: K must be at least 1 (got 0)",
	"samarati/k-only":                 "core: invalid configuration: samarati: algorithm requires generalization hierarchies",
	"samarati/unsupported":            `core: invalid configuration: samarati: criterion "alpha-k-anonymity" is not supported (supported: [k-anonymity])`,

	"topdown/nil-policy":             "core: invalid configuration: topdown: K must be at least 1 (got 0)",
	"topdown/nil-policy+hierarchies": "core: invalid configuration: topdown: K must be at least 1 (got 0)",
	"topdown/k-only":                 "core: invalid configuration: topdown: algorithm requires generalization hierarchies",
	"topdown/unsupported":            `core: invalid configuration: topdown: criterion "m-invariance" is not supported (supported: [k-anonymity alpha-k-anonymity distinct-l-diversity entropy-l-diversity recursive-cl-diversity t-closeness])`,
}

// TestAlgorithmContract pins, for every registered algorithm, the exact
// core.New error of each configuration the algorithm's contract rejects:
// a nil policy (with and without hierarchies), a k-only policy without
// hierarchies, and a policy naming a criterion the algorithm cannot enforce.
// Every one is a core.ErrConfig. A k-only policy without hierarchies is
// accepted by the algorithms that do not require them.
func TestAlgorithmContract(t *testing.T) {
	hs := synth.HospitalHierarchies()
	seen := make(map[string]bool)
	for _, name := range engine.Names() {
		alg, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		info := alg.Describe()
		unsupported := slices.IndexFunc(policy.Types(), func(typ string) bool { return !info.SupportsCriterion(typ) })
		if unsupported < 0 {
			t.Fatalf("%s: supports every criterion type; no unsupported case to pin", name)
		}
		cases := []struct {
			name string
			cfg  Config
		}{
			{"nil-policy", Config{}},
			{"nil-policy+hierarchies", Config{Hierarchies: hs}},
			{"k-only", Config{Policy: kPolicy(5)}},
			{"unsupported", Config{Policy: &policy.Policy{Criteria: []policy.Criterion{
				contractCriterion(policy.Types()[unsupported])}}}},
		}
		if info.SupportsCriterion(policy.MInvariance) {
			cases = append(cases,
				struct {
					name string
					cfg  Config
				}{"m-below-2", Config{Policy: &policy.Policy{Criteria: []policy.Criterion{
					{Type: policy.MInvariance, M: 1, ID: "name"}}}}},
				struct {
					name string
					cfg  Config
				}{"no-id", Config{Policy: &policy.Policy{Criteria: []policy.Criterion{
					{Type: policy.MInvariance, M: 2}}}}},
			)
		}
		for _, c := range cases {
			key := name + "/" + c.name
			c.cfg.Algorithm = Algorithm(name)
			_, err := New(c.cfg)
			want, pinned := contractErrors[key]
			if !pinned {
				// Only a k-only policy may pass, and only for an algorithm
				// that needs no hierarchies.
				if c.name != "k-only" || info.RequiresHierarchies {
					t.Errorf("%s: no pinned error for this case (New returned %v)", key, err)
				} else if err != nil {
					t.Errorf("%s: New = %v, want success", key, err)
				}
				continue
			}
			seen[key] = true
			if err == nil {
				t.Errorf("%s: New succeeded, want %q", key, want)
				continue
			}
			if err.Error() != want {
				t.Errorf("%s: New error\n got: %s\nwant: %s", key, err, want)
			}
			if !errors.Is(err, ErrConfig) {
				t.Errorf("%s: error %v is not core.ErrConfig", key, err)
			}
		}
	}
	for key := range contractErrors {
		if !seen[key] {
			t.Errorf("%s: pinned error never exercised", key)
		}
	}
}

// TestAlgorithmErrorClasses runs each registered adapter directly into one
// failure per classified package sentinel and checks that the error matches
// both the package sentinel and its engine class, so callers can branch on
// either without naming the other.
func TestAlgorithmErrorClasses(t *testing.T) {
	tbl := synth.Hospital(40, 3)
	hs := synth.HospitalHierarchies()
	mPolicy := func(m int, id string) *policy.Policy {
		return &policy.Policy{Criteria: []policy.Criterion{{Type: policy.MInvariance, M: m, ID: id}}}
	}
	cases := []struct {
		alg      string
		spec     engine.Spec
		sentinel error
		class    error
	}{
		{"mondrian", engine.Spec{K: 100}, mondrian.ErrUnsatisfiable, engine.ErrUnsatisfiable},
		{"mondrian", engine.Spec{K: 0}, mondrian.ErrConfig, engine.ErrConfig},
		{"anatomy", engine.Spec{L: 40}, anatomy.ErrEligibility, engine.ErrUnsatisfiable},
		{"anatomy", engine.Spec{L: 1}, anatomy.ErrConfig, engine.ErrConfig},
		{"kmember", engine.Spec{K: 100}, kmember.ErrTooFewRecords, engine.ErrUnsatisfiable},
		{"kmember", engine.Spec{K: 0}, kmember.ErrConfig, engine.ErrConfig},
		{"datafly", engine.Spec{K: 100, Hierarchies: hs}, datafly.ErrUnsatisfiable, engine.ErrUnsatisfiable},
		{"datafly", engine.Spec{K: 0, Hierarchies: hs}, datafly.ErrConfig, engine.ErrConfig},
		{"samarati", engine.Spec{K: 100, Hierarchies: hs}, samarati.ErrUnsatisfiable, engine.ErrUnsatisfiable},
		{"samarati", engine.Spec{K: 0, Hierarchies: hs}, samarati.ErrConfig, engine.ErrConfig},
		{"incognito", engine.Spec{K: 100, Hierarchies: hs}, incognito.ErrUnsatisfiable, engine.ErrUnsatisfiable},
		{"incognito", engine.Spec{K: 0, Hierarchies: hs}, incognito.ErrConfig, engine.ErrConfig},
		{"topdown", engine.Spec{K: 100, Hierarchies: hs}, topdown.ErrUnsatisfiable, engine.ErrUnsatisfiable},
		{"topdown", engine.Spec{K: 0, Hierarchies: hs}, topdown.ErrConfig, engine.ErrConfig},
		{"republish", engine.Spec{Policy: mPolicy(2, "patient_id")}, republish.ErrUnknownID, engine.ErrConfig},
		{"republish", engine.Spec{Policy: mPolicy(40, "name")}, republish.ErrEligibility, engine.ErrUnsatisfiable},
		{"republish", engine.Spec{Policy: mPolicy(1, "name")}, republish.ErrConfig, engine.ErrConfig},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%v", c.alg, c.sentinel), func(t *testing.T) {
			alg, err := engine.Lookup(c.alg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = alg.Run(context.Background(), tbl, c.spec)
			if !errors.Is(err, c.sentinel) {
				t.Errorf("Run error = %v, want package sentinel %v", err, c.sentinel)
			}
			if !errors.Is(err, c.class) {
				t.Errorf("Run error = %v, want engine class %v", err, c.class)
			}
		})
	}
}

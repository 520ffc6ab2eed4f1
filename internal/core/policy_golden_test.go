package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/synth"
)

// flatGolden is one algorithm's case of the translation equivalence proof:
// flat parameters exercising what the algorithm reads, the policy document
// they mean, and everything else of the configuration.
type flatGolden struct {
	flat policy.Flat
	doc  string
	cfg  Config
	tbl  *dataset.Table
}

// flatGoldenCase returns the case for one algorithm. The test fails for a
// registered algorithm without a case here, so an eighth algorithm cannot
// silently skip the equivalence proof.
func flatGoldenCase(t *testing.T, alg Algorithm) flatGolden {
	t.Helper()
	census := synth.Census(500, 9)
	base := Config{
		Algorithm:        alg,
		QuasiIdentifiers: []string{"age", "sex", "education", "marital-status", "race"},
		Hierarchies:      synth.CensusHierarchies(),
	}
	const budget = `"suppression":{"max_fraction":0.02}`
	switch alg {
	case Mondrian:
		base.Sensitive = "occupation"
		return flatGolden{policy.Flat{K: 5, L: 2, Sensitive: "occupation", MaxSuppression: 0.02},
			`{"criteria":[{"type":"k-anonymity","k":5},{"type":"distinct-l-diversity","l":2,"sensitive":"occupation"}],` + budget + `}`,
			base, census}
	case Datafly, Samarati, KMember:
		return flatGolden{policy.Flat{K: 5, MaxSuppression: 0.02},
			`{"criteria":[{"type":"k-anonymity","k":5}],` + budget + `}`, base, census}
	case Incognito, TopDown:
		base.Sensitive = "occupation"
		return flatGolden{policy.Flat{K: 5, T: 0.5, Sensitive: "occupation", MaxSuppression: 0.02},
			`{"criteria":[{"type":"k-anonymity","k":5},{"type":"t-closeness","t":0.5,"sensitive":"occupation"}],` + budget + `}`,
			base, census}
	case Anatomy:
		return flatGolden{policy.Flat{L: 3, Sensitive: "diagnosis"},
			`{"criteria":[{"type":"distinct-l-diversity","l":3,"sensitive":"diagnosis"}]}`,
			Config{Algorithm: Anatomy, Sensitive: "diagnosis"}, synth.Hospital(600, 9)}
	case "republish":
		// m-invariance is deliberately not flat-expressible, so there is
		// no flat configuration to prove equivalent; the policy document is
		// republish's only surface.
		t.Skip("republish has no flat-parameter surface")
	default:
		t.Fatalf("no golden flat configuration for algorithm %q — add one to keep the policy equivalence proof exhaustive", alg)
	}
	return flatGolden{}
}

// runFlat runs flat parameters the way the service and CLI edges do:
// translated once by policy.FromFlatFor, run on the policy-only core, and
// re-measured against the declared policy where it holds more than the
// algorithm enforces or the flat ordered EMD applies.
func runFlat(t *testing.T, cfg Config, flat policy.Flat, tbl *dataset.Table) *Release {
	t.Helper()
	alg, err := engine.Lookup(string(cfg.Algorithm))
	if err != nil {
		t.Fatal(err)
	}
	enforced, declared, err := policy.FromFlatFor(flat, alg.Describe().Criteria)
	if err != nil {
		t.Fatalf("FromFlatFor: %v", err)
	}
	cfg.Policy = enforced
	a, err := New(cfg)
	if err != nil {
		t.Fatalf("New(translated): %v", err)
	}
	rel, err := a.Anonymize(tbl)
	if err != nil {
		t.Fatalf("Anonymize(translated): %v", err)
	}
	if enforced != declared || flat.OrderedSensitive {
		if err := a.Remeasure(rel, declared, flat.OrderedSensitive); err != nil {
			t.Fatalf("Remeasure: %v", err)
		}
	}
	return rel
}

// TestPolicyPathGolden proves the flat surface is a pure translation: for
// every registered algorithm, flat parameters translated by
// policy.FromFlatFor and run on the policy-only core release byte-identical
// tables, node, suppression accounting, measurements and policy echo to the
// explicit policy document they mean.
func TestPolicyPathGolden(t *testing.T) {
	for _, name := range engine.Names() {
		alg := Algorithm(name)
		t.Run(string(alg), func(t *testing.T) {
			tc := flatGoldenCase(t, alg)
			relFlat := runFlat(t, tc.cfg, tc.flat, tc.tbl)
			doc, err := policy.Parse([]byte(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Policy = doc
			polAnon, err := New(cfg)
			if err != nil {
				t.Fatalf("New(policy): %v", err)
			}
			relPol, err := polAnon.Anonymize(tc.tbl)
			if err != nil {
				t.Fatalf("Anonymize(policy): %v", err)
			}
			for _, pair := range []struct {
				name string
				a, b *dataset.Table
			}{
				{"table", relFlat.Table, relPol.Table},
				{"qit", relFlat.QIT, relPol.QIT},
				{"st", relFlat.ST, relPol.ST},
			} {
				if (pair.a == nil) != (pair.b == nil) {
					t.Fatalf("%s: nil mismatch", pair.name)
				}
				if pair.a == nil {
					continue
				}
				if !bytes.Equal(csvOf(t, pair.a), csvOf(t, pair.b)) {
					t.Errorf("%s: released bytes differ between flat and policy paths", pair.name)
				}
			}
			if !reflect.DeepEqual(relFlat.Node, relPol.Node) {
				t.Errorf("node = %v vs %v", relFlat.Node, relPol.Node)
			}
			if !reflect.DeepEqual(relFlat.Measured, relPol.Measured) {
				t.Errorf("measurements differ:\nflat:   %+v\npolicy: %+v", relFlat.Measured, relPol.Measured)
			}
			if !relFlat.Policy.Equal(relPol.Policy) {
				t.Errorf("release policy echoes differ:\nflat:   %s\npolicy: %s",
					relFlat.Policy.Describe(), relPol.Policy.Describe())
			}
		})
	}
}

// TestRemeasureDeclaredCriteria checks Remeasure, the "trust but verify"
// step for requests declaring more than the algorithm enforces: datafly runs
// k-anonymity only, and the release is then measured against a declared
// policy adding t-closeness (tight enough to be violated) and reports the
// violation, while the policy-independent measurements stay put.
func TestRemeasureDeclaredCriteria(t *testing.T) {
	cfg := Config{
		Algorithm:        Datafly,
		Sensitive:        "salary",
		QuasiIdentifiers: []string{"age", "sex", "education", "marital-status", "race"},
		Hierarchies:      synth.CensusHierarchies(),
	}
	rel := runFlat(t, cfg, policy.Flat{K: 5, T: 0.01, Sensitive: "salary"}, synth.Census(500, 13))
	if !rel.Policy.Has(policy.TCloseness) {
		t.Fatalf("release policy %s dropped the declared t-closeness", rel.Policy.Describe())
	}
	tc, ok := rel.Measured.Criteria[policy.TCloseness]
	if !ok {
		t.Fatalf("no t-closeness measurement: %v", rel.Measured.Criteria)
	}
	if tc.Satisfied || tc.Measured <= 0.01 {
		t.Fatalf("t-closeness measurement = %+v, want a violation of t=0.01", tc)
	}
	cfg.Policy = kPolicy(5)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enforcedOnly, err := a.Anonymize(synth.Census(500, 13))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rel.Measured.K, enforcedOnly.Measured.K; got != want || rel.Measured.NCP != enforcedOnly.Measured.NCP {
		t.Errorf("Remeasure changed policy-independent measurements: %+v vs %+v", rel.Measured, enforcedOnly.Measured)
	}

	// Without a t-closeness criterion, orderedEMD picks the max-EMD ground
	// distance; on the many-valued occupation column the two differ.
	cfg.Sensitive = "occupation"
	equal := runFlat(t, cfg, policy.Flat{K: 5, Sensitive: "occupation"}, synth.Census(500, 13))
	ordered := runFlat(t, cfg, policy.Flat{K: 5, Sensitive: "occupation", OrderedSensitive: true}, synth.Census(500, 13))
	if equal.Measured.MaxEMD == ordered.Measured.MaxEMD {
		t.Errorf("orderedEMD did not change max EMD (%v)", equal.Measured.MaxEMD)
	}
}

// TestPolicyOnlyCombination exercises a policy the flat surface cannot
// express — (α,k)-anonymity composed with entropy l-diversity and
// t-closeness — and checks the per-criterion measurements report every
// criterion as satisfied with sane values.
func TestPolicyOnlyCombination(t *testing.T) {
	pol, err := policy.Parse([]byte(`{
		"version": 1,
		"criteria": [
			{"type": "k-anonymity", "k": 4},
			{"type": "alpha-k-anonymity", "k": 4, "alpha": 0.9},
			{"type": "entropy-l-diversity", "l": 1.5},
			{"type": "t-closeness", "t": 0.6}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{
		Algorithm:        Mondrian,
		Policy:           pol,
		QuasiIdentifiers: []string{"age", "zip", "sex"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := a.Anonymize(synth.Hospital(1000, 11))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rel.Measured.Criteria); got != 4 {
		t.Fatalf("criteria measurements = %d entries (%v), want 4", got, rel.Measured.Criteria)
	}
	for typ, m := range rel.Measured.Criteria {
		if !m.Satisfied {
			t.Errorf("%s: not satisfied (measured %v, target %v)", typ, m.Measured, m.Target)
		}
	}
	ka := rel.Measured.Criteria[policy.KAnonymity]
	if ka.Measured < 4 || ka.Target != 4 {
		t.Errorf("k-anonymity entry = %+v", ka)
	}
	if s := rel.Measured.Criteria[policy.TCloseness].Sensitive; s != "diagnosis" {
		t.Errorf("t-closeness resolved sensitive = %q, want schema default diagnosis", s)
	}
	if ok, failed, err := a.Verify(rel.Table); err != nil || !ok {
		t.Errorf("Verify = %v, %q, %v", ok, failed, err)
	}
}

// TestPolicyUnsupportedCombination checks that a policy naming a criterion
// the algorithm cannot enforce fails New as a configuration error. (The
// deprecated flat parameters keep their legacy silent ignore by translation
// at the edges; see policy.TestFromFlatFor.)
func TestPolicyUnsupportedCombination(t *testing.T) {
	pol, err := policy.Parse([]byte(`{
		"criteria": [
			{"type": "k-anonymity", "k": 5},
			{"type": "t-closeness", "t": 0.2, "sensitive": "occupation"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Algorithm:   Datafly,
		Policy:      pol,
		Hierarchies: synth.CensusHierarchies(),
	})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("datafly + t-closeness policy error = %v, want ErrConfig", err)
	}
}

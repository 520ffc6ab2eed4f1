package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/metrics"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/synth"
)

// kPolicy is a k-anonymity policy composed with further criteria. Core
// canonicalizes it, so tests build it in any order.
func kPolicy(k int, more ...policy.Criterion) *policy.Policy {
	return &policy.Policy{Criteria: append([]policy.Criterion{{Type: policy.KAnonymity, K: k}}, more...)}
}

// withSuppression sets a policy's suppression budget.
func withSuppression(p *policy.Policy, budget float64) *policy.Policy {
	p.Suppression = &policy.Suppression{MaxFraction: budget}
	return p
}

// distinctL is a distinct l-diversity criterion.
func distinctL(l int, sensitive string) policy.Criterion {
	return policy.Criterion{Type: policy.DistinctLDiversity, L: float64(l), Sensitive: sensitive}
}

func TestParseAlgorithm(t *testing.T) {
	for _, name := range engine.Names() {
		a := Algorithm(name)
		got, err := ParseAlgorithm(name)
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a, got, err)
		}
	}
	if got, err := ParseAlgorithm(""); err != nil || got != Mondrian {
		t.Errorf("ParseAlgorithm(\"\") = %v, %v", got, err)
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestNewValidation(t *testing.T) {
	hs := synth.HospitalHierarchies()
	cases := []Config{
		{Algorithm: "bogus", Policy: kPolicy(2)},
		{Algorithm: Mondrian}, // no policy: k is missing
		{Algorithm: Mondrian, Policy: kPolicy(0)},
		{Algorithm: Anatomy, Policy: &policy.Policy{Criteria: []policy.Criterion{distinctL(1, "")}}},
		{Algorithm: Mondrian, Policy: kPolicy(2, policy.Criterion{Type: policy.TCloseness, T: 1.5})},
		{Algorithm: Mondrian, Policy: withSuppression(kPolicy(2), 2)},
		{Algorithm: Mondrian, Policy: kPolicy(2, policy.Criterion{Type: "bogus-diversity", L: 2})},
		{Algorithm: Datafly, Policy: kPolicy(2)}, // needs hierarchies
	}
	for i, cfg := range cases {
		if _, err := New(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: error = %v", i, err)
		}
	}
	a, err := New(Config{Algorithm: Datafly, Policy: kPolicy(2), Hierarchies: hs})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if a.cfg.Algorithm != Datafly {
		t.Errorf("cfg = %+v", a.cfg)
	}
	// Recursive diversity defaults C to 3.
	a, err = New(Config{Algorithm: Mondrian, Sensitive: "diagnosis",
		Policy: kPolicy(2, policy.Criterion{Type: policy.RecursiveCLDiversity, L: 2})})
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := a.Policy().Find(policy.RecursiveCLDiversity); c.C != 3 {
		t.Errorf("default C = %v", c.C)
	}
}

func TestAnonymizeMicrodataAlgorithms(t *testing.T) {
	tbl := synth.Hospital(600, 1)
	hs := synth.HospitalHierarchies()
	qi := []string{"age", "zip", "sex"}
	for _, alg := range []Algorithm{Mondrian, Datafly, Samarati, Incognito, TopDown, KMember} {
		cfg := Config{
			Algorithm:        alg,
			Policy:           withSuppression(kPolicy(5), 0.05),
			QuasiIdentifiers: qi,
			Hierarchies:      hs,
		}
		a, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", alg, err)
		}
		rel, err := a.Anonymize(tbl)
		if err != nil {
			t.Fatalf("%s: Anonymize: %v", alg, err)
		}
		if rel.Table == nil {
			t.Fatalf("%s: nil release table", alg)
		}
		if rel.Table.Schema().Has("name") {
			t.Errorf("%s: direct identifier not dropped", alg)
		}
		if rel.Measured.K < 5 {
			t.Errorf("%s: measured k = %d", alg, rel.Measured.K)
		}
		if rel.Measured.ProsecutorMaxRisk > 1.0/5+1e-9 {
			t.Errorf("%s: prosecutor risk %v above 1/k", alg, rel.Measured.ProsecutorMaxRisk)
		}
		if rel.Measured.NCP < 0 || rel.Measured.NCP > 1 {
			t.Errorf("%s: NCP %v out of range", alg, rel.Measured.NCP)
		}
		ok, failed, err := a.Verify(rel.Table)
		if err != nil || !ok {
			t.Errorf("%s: Verify = %v, %q, %v", alg, ok, failed, err)
		}
	}
}

func TestAnonymizeWithDiversityAndCloseness(t *testing.T) {
	tbl := synth.Hospital(1000, 2)
	a, err := New(Config{
		Algorithm: Mondrian,
		Policy: kPolicy(5, distinctL(2, ""),
			policy.Criterion{Type: policy.TCloseness, T: 0.4}),
		Sensitive:        "diagnosis",
		QuasiIdentifiers: []string{"age", "zip", "sex"},
		Hierarchies:      synth.HospitalHierarchies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := a.Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Measured.DistinctL < 2 {
		t.Errorf("measured distinct l = %d", rel.Measured.DistinctL)
	}
	if rel.Measured.MaxEMD > 0.4+1e-9 {
		t.Errorf("measured max EMD = %v", rel.Measured.MaxEMD)
	}
	ok, failed, err := a.Verify(rel.Table)
	if err != nil || !ok {
		t.Errorf("Verify = %v, %q, %v", ok, failed, err)
	}
}

func TestAnonymizeEntropyAndRecursiveModes(t *testing.T) {
	tbl := synth.Hospital(800, 3)
	for _, mode := range []string{policy.EntropyLDiversity, policy.RecursiveCLDiversity} {
		a, err := New(Config{
			Algorithm:        Mondrian,
			Policy:           kPolicy(4, policy.Criterion{Type: mode, L: 2}),
			Sensitive:        "diagnosis",
			QuasiIdentifiers: []string{"age", "zip", "sex"},
		})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		rel, err := a.Anonymize(tbl)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if rel.Measured.K < 4 {
			t.Errorf("%s: measured k = %d", mode, rel.Measured.K)
		}
	}
}

func TestAnonymizeAnatomy(t *testing.T) {
	tbl := synth.Hospital(800, 4)
	a, err := New(Config{Algorithm: Anatomy, Policy: &policy.Policy{Criteria: []policy.Criterion{distinctL(3, "")}}})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := a.Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Table != nil {
		t.Error("anatomy should not produce a single microdata table")
	}
	if rel.QIT == nil || rel.ST == nil {
		t.Fatal("anatomy release missing QIT/ST")
	}
	if rel.QIT.Len() != tbl.Len() {
		t.Errorf("QIT rows = %d", rel.QIT.Len())
	}
}

func TestSensitiveDefaultsAndLDiversityWithoutSensitive(t *testing.T) {
	tbl := synth.Hospital(300, 5)
	// Drop the sensitive column to provoke the error path.
	plain, err := tbl.Project("age", "zip", "sex")
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Algorithm: Mondrian, Policy: kPolicy(2, distinctL(2, ""))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Anonymize(plain); !errors.Is(err, ErrConfig) {
		t.Errorf("l-diversity without sensitive attribute error = %v", err)
	}
	// Without L it works and skips the sensitive measurements.
	a2, _ := New(Config{Algorithm: Mondrian, Policy: kPolicy(2)})
	rel, err := a2.Anonymize(plain)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Measured.DistinctL != 0 {
		t.Errorf("DistinctL measured without sensitive attribute: %d", rel.Measured.DistinctL)
	}
}

// TestParseAlgorithmStrictness locks in that parsing is exact: no case
// folding, no whitespace trimming, no prefixes.
func TestParseAlgorithmStrictness(t *testing.T) {
	for _, s := range []string{"Mondrian", "MONDRIAN", " mondrian", "mondrian ", "mond", "mondrian2"} {
		if got, err := ParseAlgorithm(s); err == nil {
			t.Errorf("ParseAlgorithm(%q) = %v, want error", s, got)
		}
	}
	// Every listed algorithm round-trips through its string form.
	for _, name := range engine.Names() {
		if got, err := ParseAlgorithm(name); err != nil || got != Algorithm(name) {
			t.Errorf("round-trip %q = %v, %v", name, got, err)
		}
	}
}

// TestAnonymizeContext checks that cancellation reaches the pipeline for both
// the context-aware Mondrian path and the gated non-Mondrian paths.
func TestAnonymizeContext(t *testing.T) {
	tbl := synth.Census(600, 3)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{Mondrian, KMember} {
		a, err := New(Config{Algorithm: alg, Policy: kPolicy(5), Hierarchies: synth.CensusHierarchies()})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if _, err := a.AnonymizeContext(canceled, tbl); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled error = %v, want context.Canceled", alg, err)
		}
		if _, err := a.AnonymizeContext(context.Background(), tbl); err != nil {
			t.Errorf("%s: live context failed: %v", alg, err)
		}
	}
	// Anonymize (no context) is unchanged.
	a, err := New(Config{Policy: kPolicy(5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Anonymize(tbl); err != nil {
		t.Fatalf("Anonymize: %v", err)
	}
}

// TestMeasureErrorsPropagate locks in that a failing utility metric is a
// failing measurement: NCP and discernibility errors must surface instead of
// silently reading as a perfect 0.0.
func TestMeasureErrorsPropagate(t *testing.T) {
	released, err := synth.Hospital(80, 6).DropIdentifiers()
	if err != nil {
		t.Fatal(err)
	}
	// An "original" missing one of the release's quasi-identifier columns
	// makes NCP's domain lookups fail with ErrMismatchedTables.
	original, err := released.Project("age", "zip", "sex")
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Policy: kPolicy(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.measure(original, released, nil, ""); !errors.Is(err, metrics.ErrMismatchedTables) {
		t.Fatalf("measure error = %v, want ErrMismatchedTables to propagate", err)
	}
}

// TestWorkersValidation checks the Workers knob on the core config.
func TestWorkersValidation(t *testing.T) {
	if _, err := New(Config{Policy: kPolicy(2), Workers: -1}); !errors.Is(err, ErrConfig) {
		t.Errorf("negative workers error = %v, want ErrConfig", err)
	}
	a, err := New(Config{Policy: kPolicy(5), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := a.Anonymize(synth.Census(400, 4))
	if err != nil || rel.Measured.K < 5 {
		t.Fatalf("workers=2 release = %+v, err %v", rel, err)
	}
}

// TestMeasurementsJSON: finite measures encode as numbers, non-finite ones
// as null, null decodes as NaN, and a record written before Measure existed
// (plain numbers under the Go field names) decodes unchanged.
func TestMeasurementsJSON(t *testing.T) {
	m := Measurements{
		K: 5, MaxEMD: 0.25, NCP: Measure(math.Inf(1)), Discernibility: Measure(math.NaN()),
		Criteria: map[string]CriterionMeasurement{"recursive-cl-diversity": {Measured: Measure(math.Inf(1)), Target: 3}},
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"Criteria":{"recursive-cl-diversity":{"Satisfied":false,"Measured":null,"Target":3,"Sensitive":""}},` +
		`"K":5,"DistinctL":0,"MaxEMD":0.25,"NCP":null,"Discernibility":null,"ProsecutorMaxRisk":0,"SuppressedRows":0}`
	if string(raw) != want {
		t.Fatalf("encoded\n %s\nwant\n %s", raw, want)
	}
	var back Measurements
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(back.NCP)) || !math.IsNaN(float64(back.Criteria["recursive-cl-diversity"].Measured)) || back.MaxEMD != 0.25 {
		t.Errorf("decoded %+v", back)
	}
	old := `{"K":4,"DistinctL":2,"MaxEMD":0.5,"NCP":0.125,"Discernibility":1200,"ProsecutorMaxRisk":0.25,"SuppressedRows":3}`
	var dec Measurements
	if err := json.Unmarshal([]byte(old), &dec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, Measurements{K: 4, DistinctL: 2, MaxEMD: 0.5, NCP: 0.125, Discernibility: 1200, ProsecutorMaxRisk: 0.25, SuppressedRows: 3}) {
		t.Errorf("old record decoded as %+v", dec)
	}
}

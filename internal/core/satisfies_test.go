package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/ppdp/ppdp/internal/algorithms/incognito"
	"github.com/ppdp/ppdp/internal/algorithms/mondrian"
	"github.com/ppdp/ppdp/internal/algorithms/topdown"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/synth"
)

// TestReleaseSatisfiesItsMeasurements checks that a published release never
// reports a criterion it was run under as violated: the algorithms enforce
// the same verdict the measurements publish, so every run either refuses
// with the algorithm's ErrUnsatisfiable or measures every criterion
// satisfied.
func TestReleaseSatisfiesItsMeasurements(t *testing.T) {
	// One class of 80 records, 55×a and 25×b: r1/tail = 55/25 = 2.2, which
	// recursive (2.2, 2)-diversity refuses (strict inequality), although
	// 2.2*25 rounds above 55.
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "s", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	rows := make([]dataset.Row, 80)
	for i := range rows {
		rows[i] = dataset.Row{"30", "a"}
		if i >= 55 {
			rows[i][1] = "b"
		}
	}
	boundary, err := dataset.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Algorithm: Mondrian, Policy: kPolicy(2, policy.Criterion{Type: policy.RecursiveCLDiversity, L: 2, C: 2.2})})
	if err != nil {
		t.Fatal(err)
	}
	if rel, err := a.Anonymize(boundary); !errors.Is(err, mondrian.ErrUnsatisfiable) {
		t.Fatalf("boundary table: error %v, want mondrian.ErrUnsatisfiable (release measured %+v)", err, releaseCriteria(rel))
	}

	fixtures := []struct {
		name string
		tbl  *dataset.Table
		qi   []string
		hs   *hierarchy.Set
	}{
		{"census", synth.Census(400, 5), []string{"age", "sex", "education", "marital-status", "race"}, synth.CensusHierarchies()},
		{"hospital", synth.Hospital(400, 5), []string{"age", "zip", "sex"}, synth.HospitalHierarchies()},
	}
	criteria := []policy.Criterion{
		{Type: policy.AlphaKAnonymity, K: 5, Alpha: 0.5},
		{Type: policy.DistinctLDiversity, L: 2},
		{Type: policy.EntropyLDiversity, L: 2},
		{Type: policy.RecursiveCLDiversity, L: 2, C: 1.1},
		{Type: policy.RecursiveCLDiversity, L: 2, C: 2.2},
		{Type: policy.RecursiveCLDiversity, L: 2, C: 3},
		{Type: policy.TCloseness, T: 0.3},
	}
	unsatisfiable := map[Algorithm]error{
		Mondrian:  mondrian.ErrUnsatisfiable,
		Incognito: incognito.ErrUnsatisfiable,
		TopDown:   topdown.ErrUnsatisfiable,
	}
	for _, alg := range []Algorithm{Mondrian, Incognito, TopDown} {
		for _, fx := range fixtures {
			for _, c := range criteria {
				name := fmt.Sprintf("%s/%s/%s", alg, fx.name, c.Describe())
				a, err := New(Config{Algorithm: alg, Policy: kPolicy(5, c), QuasiIdentifiers: fx.qi, Hierarchies: fx.hs})
				if err != nil {
					t.Fatalf("%s: New: %v", name, err)
				}
				rel, err := a.Anonymize(fx.tbl)
				if errors.Is(err, unsatisfiable[alg]) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(rel.Measured.Criteria) != 2 {
					t.Errorf("%s: measured %d criteria, want 2: %+v", name, len(rel.Measured.Criteria), rel.Measured.Criteria)
				}
				for typ, m := range rel.Measured.Criteria {
					if !m.Satisfied {
						t.Errorf("%s: published release reports %s violated (measured %v, target %v)", name, typ, m.Measured, m.Target)
					}
				}
			}
		}
	}
}

// releaseCriteria returns a release's criterion measurements, or nil for no
// release.
func releaseCriteria(rel *Release) map[string]CriterionMeasurement {
	if rel == nil {
		return nil
	}
	return rel.Measured.Criteria
}

package core

import (
	"reflect"
	"testing"

	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/synth"
)

// TestEmptyReleaseMeasurements pins the criterion measurements of a release
// with no rows: Datafly and Samarati under k=1000 on 300 records with a full
// suppression budget suppress everything, and Remeasure then reports a
// declared policy carrying every per-table criterion. On no classes the
// distribution criteria measure 0 (entropy's effective l is e^0 = 1), so
// recursive (c,l)-diversity and t-closeness hold vacuously while the
// criteria bounding class sizes or counts from below do not.
func TestEmptyReleaseMeasurements(t *testing.T) {
	declared, err := (&policy.Policy{Criteria: []policy.Criterion{
		{Type: policy.KAnonymity, K: 1000},
		{Type: policy.AlphaKAnonymity, K: 2, Alpha: 0.5},
		{Type: policy.DistinctLDiversity, L: 2},
		{Type: policy.EntropyLDiversity, L: 2},
		{Type: policy.RecursiveCLDiversity, L: 2, C: 3},
		{Type: policy.TCloseness, T: 0.3},
	}}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]CriterionMeasurement{
		policy.KAnonymity:           {Satisfied: false, Measured: 0, Target: 1000},
		policy.AlphaKAnonymity:      {Satisfied: false, Measured: 0, Target: 0.5, Sensitive: "salary"},
		policy.DistinctLDiversity:   {Satisfied: false, Measured: 0, Target: 2, Sensitive: "salary"},
		policy.EntropyLDiversity:    {Satisfied: false, Measured: 1, Target: 2, Sensitive: "salary"},
		policy.RecursiveCLDiversity: {Satisfied: true, Measured: 0, Target: 3, Sensitive: "salary"},
		policy.TCloseness:           {Satisfied: true, Measured: 0, Target: 0.3, Sensitive: "salary"},
	}
	for _, alg := range []Algorithm{Datafly, Samarati} {
		a, err := New(Config{
			Algorithm:   alg,
			Policy:      withSuppression(kPolicy(1000), 1),
			Sensitive:   "salary",
			Hierarchies: synth.CensusHierarchies(),
		})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := a.Anonymize(synth.Census(300, 1))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if rel.Table.Len() != 0 || rel.Measured.SuppressedRows != 300 {
			t.Fatalf("%s: released %d rows, suppressed %d; want every row suppressed", alg, rel.Table.Len(), rel.Measured.SuppressedRows)
		}
		if err := a.Remeasure(rel, declared, false); err != nil {
			t.Fatalf("%s: Remeasure: %v", alg, err)
		}
		if !reflect.DeepEqual(rel.Measured.Criteria, want) {
			t.Errorf("%s: criteria measurements\n got %+v\nwant %+v", alg, rel.Measured.Criteria, want)
		}
	}
}

package core

import (
	"math"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/metrics"
	"github.com/ppdp/ppdp/internal/privacy"
	"github.com/ppdp/ppdp/internal/synth"
)

// TestMeasurementQuasiIdentifierSets pins which columns each release
// measurement reads. K, prosecutor risk and the criteria group the release
// by the quasi-identifier it was built for; NCP and discernibility read
// every QI column of the schema. A Mondrian run over 5 of the census
// schema's 9 QI columns therefore reports K ≥ k while discernibility, whose
// classes the 4 unrecoded columns split, falls below k·N. Changing either
// set is a deliberate decision: update this test and the Measurements docs
// together.
func TestMeasurementQuasiIdentifierSets(t *testing.T) {
	const k = 10
	tbl := synth.Census(2000, 1)
	hs := synth.CensusHierarchies()
	qi := []string{"age", "sex", "education", "marital-status", "race"}
	a, err := New(Config{Algorithm: Mondrian, Policy: kPolicy(k), QuasiIdentifiers: qi, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := a.Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	m := rel.Measured
	schemaQI := rel.Table.Schema().QuasiIdentifierNames()
	if len(schemaQI) != 9 {
		t.Fatalf("census schema has %d QI columns, want 9", len(schemaQI))
	}

	built, err := rel.Table.GroupBy(qi...)
	if err != nil {
		t.Fatal(err)
	}
	all, err := rel.Table.GroupBy(schemaQI...)
	if err != nil {
		t.Fatal(err)
	}
	if got := privacy.MeasureK(built); m.K != got || m.K < k {
		t.Errorf("K = %d, want %d (≥ %d) over the built QI", m.K, got, k)
	}
	if privacy.MeasureK(all) >= k {
		t.Fatalf("schema-QI classes are all ≥ k: the fixture no longer tells the two sets apart")
	}
	if c := m.Criteria["k-anonymity"]; !c.Satisfied || c.Measured != Measure(m.K) {
		t.Errorf("k-anonymity criterion = %+v, want satisfied at measured %d", c, m.K)
	}
	if m.ProsecutorMaxRisk != Measure(1/float64(m.K)) {
		t.Errorf("ProsecutorMaxRisk = %v, want 1/K = %v", m.ProsecutorMaxRisk, 1/float64(m.K))
	}

	squares := func(classes []dataset.EquivalenceClass) float64 {
		dm := 0.0
		for _, c := range classes {
			dm += float64(c.Size()) * float64(c.Size())
		}
		return dm
	}
	if rel.Table.Len() != tbl.Len() {
		t.Fatalf("Mondrian suppressed %d rows", tbl.Len()-rel.Table.Len())
	}
	if got, want := float64(m.Discernibility), squares(all); got != want {
		t.Errorf("Discernibility = %v, want %v over the schema QI (%v over the built QI)", got, want, squares(built))
	}
	if float64(m.Discernibility) >= k*float64(tbl.Len()) {
		t.Errorf("Discernibility = %v, no longer below k·N = %d", m.Discernibility, k*tbl.Len())
	}

	// The unrecoded columns are exact, so the schema-wide NCP is the
	// built-QI NCP scaled by 5/9.
	origQI, err := tbl.Project(qi...)
	if err != nil {
		t.Fatal(err)
	}
	relQI, err := rel.Table.Project(qi...)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := metrics.NCP(origQI, relQI, hs)
	if err != nil {
		t.Fatal(err)
	}
	if want := sub * float64(len(qi)) / float64(len(schemaQI)); math.Abs(float64(m.NCP)-want) > 1e-12 {
		t.Errorf("NCP = %v, want %v (built-QI NCP %v scaled to the schema QI)", m.NCP, want, sub)
	}
}

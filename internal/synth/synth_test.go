package synth

import (
	"testing"

	"github.com/ppdp/ppdp/internal/hierarchy"
)

func TestCensusShapeAndDeterminism(t *testing.T) {
	a := Census(500, 42)
	b := Census(500, 42)
	c := Census(500, 7)
	if a.Len() != 500 {
		t.Fatalf("len = %d", a.Len())
	}
	if a.Schema().Len() != 11 {
		t.Fatalf("schema len = %d", a.Schema().Len())
	}
	for i := 0; i < a.Len(); i++ {
		ra, _ := a.Row(i)
		rb, _ := b.Row(i)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("same seed differs at row %d col %d", i, j)
			}
		}
	}
	// A different seed should differ somewhere.
	diff := false
	for i := 0; i < a.Len() && !diff; i++ {
		ra, _ := a.Row(i)
		rc, _ := c.Row(i)
		for j := range ra {
			if ra[j] != rc[j] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical tables")
	}
}

func TestCensusDomainsAndRanges(t *testing.T) {
	tbl := Census(2000, 1)
	min, max, err := tbl.NumericRange("age")
	if err != nil {
		t.Fatal(err)
	}
	if min < 17 || max > 90 {
		t.Errorf("age range [%v, %v] outside [17, 90]", min, max)
	}
	min, max, err = tbl.NumericRange("hours-per-week")
	if err != nil {
		t.Fatal(err)
	}
	if min < 1 || max > 99 {
		t.Errorf("hours range [%v, %v] outside [1, 99]", min, max)
	}
	sal, err := tbl.Domain("salary")
	if err != nil {
		t.Fatal(err)
	}
	if len(sal) != 2 {
		t.Errorf("salary domain = %v", sal)
	}
	freq, _ := tbl.Frequencies("salary")
	high := float64(freq[">50k"]) / float64(tbl.Len())
	if high < 0.10 || high > 0.55 {
		t.Errorf(">50k share = %.2f, want a plausible minority/near-parity share", high)
	}
}

func TestCensusCorrelations(t *testing.T) {
	tbl := Census(8000, 3)
	// Doctorates should out-earn 11th-grade dropouts on average.
	rate := func(edu string) float64 {
		n, hi := 0, 0
		for i := 0; i < tbl.Len(); i++ {
			row, _ := tbl.Row(i)
			if row[3] != edu {
				continue
			}
			n++
			if row[10] == ">50k" {
				hi++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(hi) / float64(n)
	}
	if rate("doctorate") <= rate("11th") {
		t.Errorf("salary correlation missing: doctorate %.2f <= 11th %.2f", rate("doctorate"), rate("11th"))
	}
}

func TestCensusHierarchiesCoverData(t *testing.T) {
	tbl := Census(3000, 5)
	hs := CensusHierarchies()
	for _, qi := range CensusQuasiIdentifiers() {
		h, err := hs.Get(qi)
		if err != nil {
			t.Fatalf("no hierarchy for %q", qi)
		}
		dom, err := tbl.Domain(qi)
		if err != nil {
			t.Fatal(err)
		}
		if missing := hierarchy.Validate(h, dom); len(missing) > 0 {
			t.Errorf("hierarchy %q does not cover values %v", qi, missing)
		}
	}
}

func TestHospitalShapeAndSkew(t *testing.T) {
	tbl := Hospital(4000, 11)
	if tbl.Len() != 4000 || tbl.Schema().Len() != 6 {
		t.Fatalf("shape %dx%d", tbl.Len(), tbl.Schema().Len())
	}
	freq, err := tbl.Frequencies("diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if freq["flu"] <= freq["hiv"] {
		t.Errorf("diagnosis distribution not skewed: flu=%d hiv=%d", freq["flu"], freq["hiv"])
	}
	if freq["hiv"] == 0 {
		t.Error("rare diagnosis never generated; experiments need a non-empty tail")
	}
	dom, _ := tbl.Domain("diagnosis")
	if len(dom) < 8 {
		t.Errorf("diagnosis domain too small: %v", dom)
	}
}

func TestHospitalHierarchiesCoverData(t *testing.T) {
	tbl := Hospital(2000, 2)
	hs := HospitalHierarchies()
	for _, qi := range HospitalQuasiIdentifiers() {
		h, err := hs.Get(qi)
		if err != nil {
			t.Fatalf("no hierarchy for %q", qi)
		}
		dom, err := tbl.Domain(qi)
		if err != nil {
			t.Fatal(err)
		}
		if missing := hierarchy.Validate(h, dom); len(missing) > 0 {
			t.Errorf("hierarchy %q does not cover values %v", qi, missing)
		}
	}
	if len(HospitalDiagnoses()) != 10 {
		t.Errorf("HospitalDiagnoses = %v", HospitalDiagnoses())
	}
}

func TestIdentifiedRegister(t *testing.T) {
	private := Hospital(1000, 9)
	reg, err := IdentifiedRegister(private, 0.3, 200, 17)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 300+200 {
		t.Fatalf("register len = %d", reg.Len())
	}
	if reg.Schema().Has("diagnosis") {
		t.Error("register leaked the sensitive column")
	}
	if !reg.Schema().Has("name") || !reg.Schema().Has("zip") {
		t.Error("register missing identifier or QI columns")
	}
	// Clamping of overlap.
	reg2, err := IdentifiedRegister(private, 1.7, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	if reg2.Len() != private.Len() {
		t.Errorf("clamped overlap register len = %d", reg2.Len())
	}
	reg3, err := IdentifiedRegister(private, -1, 10, 17)
	if err != nil {
		t.Fatal(err)
	}
	if reg3.Len() != 10 {
		t.Errorf("negative overlap register len = %d", reg3.Len())
	}
}

func TestWeightedCoversAllIndices(t *testing.T) {
	tbl := Census(3000, 21)
	dom, _ := tbl.Domain("workclass")
	if len(dom) < 5 {
		t.Errorf("workclass domain too small: %v", dom)
	}
}

package privacy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/ppdp/ppdp/internal/dataset"
)

// buildTable constructs a released table with two QI columns (age already
// generalized, zip) and a sensitive diagnosis column.
func buildTable(t *testing.T, rows []dataset.Row) (*dataset.Table, []dataset.EquivalenceClass) {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "zip", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "diagnosis", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	tbl, err := dataset.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := tbl.GroupByQuasiIdentifier()
	if err != nil {
		t.Fatal(err)
	}
	return tbl, classes
}

// check decides one criterion through CheckAll, the path the algorithms
// enforce criteria by.
func check(c Criterion, tbl *dataset.Table, classes []dataset.EquivalenceClass) (bool, error) {
	ok, _, err := CheckAll(tbl, classes, c)
	return ok, err
}

func anonRows() []dataset.Row {
	return []dataset.Row{
		{"[20-30)", "303**", "flu"},
		{"[20-30)", "303**", "cancer"},
		{"[20-30)", "303**", "hiv"},
		{"[30-40)", "303**", "flu"},
		{"[30-40)", "303**", "flu"},
		{"[30-40)", "303**", "gastritis"},
	}
}

func TestKAnonymity(t *testing.T) {
	tbl, classes := buildTable(t, anonRows())
	for _, tc := range []struct {
		k    int
		want bool
	}{{1, true}, {2, true}, {3, true}, {4, false}} {
		ok, err := check(KAnonymity{K: tc.k}, tbl, classes)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.want {
			t.Errorf("k=%d: got %v, want %v", tc.k, ok, tc.want)
		}
	}
	if MeasureK(classes) != 3 {
		t.Errorf("MeasureK = %d", MeasureK(classes))
	}
	if _, err := check(KAnonymity{K: 0}, tbl, classes); !errors.Is(err, ErrParameter) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := check(KAnonymity{K: 2}, tbl, nil); !errors.Is(err, ErrNoClasses) {
		t.Errorf("no classes error = %v", err)
	}
	if got := (KAnonymity{K: 5}).Name(); got != "5-anonymity" {
		t.Errorf("Name = %q", got)
	}
}

func TestAlphaKAnonymity(t *testing.T) {
	tbl, classes := buildTable(t, anonRows())
	// Second class is 2/3 flu; alpha 0.5 fails, alpha 0.7 passes.
	ok, err := check(AlphaKAnonymity{K: 2, Alpha: 0.5, Sensitive: "diagnosis"}, tbl, classes)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("alpha=0.5 should fail")
	}
	ok, err = check(AlphaKAnonymity{K: 2, Alpha: 0.7, Sensitive: "diagnosis"}, tbl, classes)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("alpha=0.7 should pass")
	}
	// K gate.
	ok, _ = check(AlphaKAnonymity{K: 4, Alpha: 1, Sensitive: "diagnosis"}, tbl, classes)
	if ok {
		t.Error("k=4 should fail before alpha is considered")
	}
	if _, err := check(AlphaKAnonymity{K: 1, Alpha: 0, Sensitive: "diagnosis"}, tbl, classes); !errors.Is(err, ErrParameter) {
		t.Errorf("alpha=0 error = %v", err)
	}
	if _, err := check(AlphaKAnonymity{K: 1, Alpha: 0.5, Sensitive: "nope"}, tbl, classes); err == nil {
		t.Error("unknown sensitive accepted")
	}
	if _, err := check(AlphaKAnonymity{K: 1, Alpha: 0.5, Sensitive: "diagnosis"}, tbl, nil); !errors.Is(err, ErrNoClasses) {
		t.Errorf("no classes error = %v", err)
	}
}

func TestDistinctLDiversity(t *testing.T) {
	tbl, classes := buildTable(t, anonRows())
	// Class 1 has 3 distinct, class 2 has 2 distinct => release is 2-diverse.
	l, err := MeasureDistinctL(tbl, classes, "diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if l != 2 {
		t.Errorf("MeasureDistinctL = %d", l)
	}
	ok, _ := check(DistinctLDiversity{L: 2, Sensitive: "diagnosis"}, tbl, classes)
	if !ok {
		t.Error("2-diversity should hold")
	}
	ok, _ = check(DistinctLDiversity{L: 3, Sensitive: "diagnosis"}, tbl, classes)
	if ok {
		t.Error("3-diversity should fail")
	}
	if _, err := check(DistinctLDiversity{L: 0, Sensitive: "diagnosis"}, tbl, classes); !errors.Is(err, ErrParameter) {
		t.Errorf("l=0 error = %v", err)
	}
	if _, err := check(DistinctLDiversity{L: 2, Sensitive: "diagnosis"}, tbl, nil); !errors.Is(err, ErrNoClasses) {
		t.Errorf("no classes error = %v", err)
	}
	if l, _ := MeasureDistinctL(tbl, nil, "diagnosis"); l != 0 {
		t.Errorf("MeasureDistinctL(empty) = %d", l)
	}
	if _, err := MeasureDistinctL(tbl, classes, "nope"); err == nil {
		t.Error("unknown sensitive accepted")
	}
}

func TestEntropyLDiversity(t *testing.T) {
	tbl, classes := buildTable(t, anonRows())
	v, err := EntropyLDiversity{L: 2, Sensitive: "diagnosis"}.Evaluate(tbl, classes)
	if err != nil {
		t.Fatal(err)
	}
	// Worst class: {flu:2, gastritis:1}: H = -(2/3)ln(2/3) - (1/3)ln(1/3),
	// reported as the effective l e^H.
	want := -(2.0/3)*math.Log(2.0/3) - (1.0/3)*math.Log(1.0/3)
	if math.Abs(v.Measured-math.Exp(want)) > 1e-9 || v.Target != 2 {
		t.Errorf("entropy verdict = %+v, want measured %v", v, math.Exp(want))
	}
	// exp(want) ~ 1.88: entropy 1.8-diversity holds, 2-diversity fails.
	ok, _ := check(EntropyLDiversity{L: 1.8, Sensitive: "diagnosis"}, tbl, classes)
	if !ok {
		t.Error("entropy 1.8-diversity should hold")
	}
	ok, _ = check(EntropyLDiversity{L: 2, Sensitive: "diagnosis"}, tbl, classes)
	if ok {
		t.Error("entropy 2-diversity should fail")
	}
	if _, err := check(EntropyLDiversity{L: 0.5, Sensitive: "diagnosis"}, tbl, classes); !errors.Is(err, ErrParameter) {
		t.Errorf("l<1 error = %v", err)
	}
	if _, err := check(EntropyLDiversity{L: 2, Sensitive: "diagnosis"}, tbl, nil); !errors.Is(err, ErrNoClasses) {
		t.Errorf("no classes error = %v", err)
	}
	if v, _ := (EntropyLDiversity{L: 2, Sensitive: "diagnosis"}).Evaluate(tbl, nil); v.Measured != 1 || v.Satisfied {
		t.Errorf("entropy verdict on no classes = %+v, want e^0 = 1, unsatisfied", v)
	}
}

func TestRecursiveCLDiversity(t *testing.T) {
	tbl, classes := buildTable(t, anonRows())
	// Worst class counts sorted: [2,1]. For l=2: r1=2, tail=1. Need 2 < c*1.
	ok, err := check(RecursiveCLDiversity{C: 3, L: 2, Sensitive: "diagnosis"}, tbl, classes)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("(3,2)-diversity should hold")
	}
	ok, _ = check(RecursiveCLDiversity{C: 1.5, L: 2, Sensitive: "diagnosis"}, tbl, classes)
	if ok {
		t.Error("(1.5,2)-diversity should fail")
	}
	// l larger than the number of distinct values fails.
	ok, _ = check(RecursiveCLDiversity{C: 10, L: 3, Sensitive: "diagnosis"}, tbl, classes)
	if ok {
		t.Error("(10,3)-diversity should fail (only 2 distinct values in a class)")
	}
	if _, err := check(RecursiveCLDiversity{C: 0, L: 2, Sensitive: "diagnosis"}, tbl, classes); !errors.Is(err, ErrParameter) {
		t.Errorf("c=0 error = %v", err)
	}
	if _, err := check(RecursiveCLDiversity{C: 1, L: 1, Sensitive: "nope"}, tbl, classes); err == nil {
		t.Error("unknown sensitive accepted")
	}
	if _, err := check(RecursiveCLDiversity{C: 1, L: 1, Sensitive: "diagnosis"}, tbl, nil); !errors.Is(err, ErrNoClasses) {
		t.Errorf("no classes error = %v", err)
	}
}

func TestTCloseness(t *testing.T) {
	// Global: flu 3/6, cancer 1/6, hiv 1/6, gastritis 1/6.
	tbl, classes := buildTable(t, anonRows())
	maxEMD, err := MeasureMaxEMD(tbl, classes, "diagnosis", false)
	if err != nil {
		t.Fatal(err)
	}
	// Class1 dist: flu 1/3, cancer 1/3, hiv 1/3, gastritis 0
	// |1/3-1/2| + |1/3-1/6| + |1/3-1/6| + |0-1/6| = 1/6+1/6+1/6+1/6 = 2/3 -> EMD 1/3.
	if math.Abs(maxEMD-1.0/3) > 1e-9 {
		t.Errorf("MeasureMaxEMD = %v, want 1/3", maxEMD)
	}
	ok, _ := check(TCloseness{T: 0.35, Sensitive: "diagnosis"}, tbl, classes)
	if !ok {
		t.Error("0.35-closeness should hold")
	}
	ok, _ = check(TCloseness{T: 0.2, Sensitive: "diagnosis"}, tbl, classes)
	if ok {
		t.Error("0.2-closeness should fail")
	}
	if _, err := check(TCloseness{T: -1, Sensitive: "diagnosis"}, tbl, classes); !errors.Is(err, ErrParameter) {
		t.Errorf("t<0 error = %v", err)
	}
	if _, err := check(TCloseness{T: 0.5, Sensitive: "diagnosis"}, tbl, nil); !errors.Is(err, ErrNoClasses) {
		t.Errorf("no classes error = %v", err)
	}
	if _, err := MeasureMaxEMD(tbl, classes, "nope", false); err == nil {
		t.Error("unknown sensitive accepted")
	}
}

func TestTClosenessOrdered(t *testing.T) {
	// Numeric sensitive attribute (say salary in thousands).
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "grp", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "salary", Kind: dataset.Sensitive, Type: dataset.Numeric},
	)
	rows := []dataset.Row{
		{"a", "10"}, {"a", "20"}, {"a", "30"},
		{"b", "70"}, {"b", "80"}, {"b", "90"},
	}
	tbl, err := dataset.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	classes, _ := tbl.GroupByQuasiIdentifier()
	ordered, err := MeasureMaxEMD(tbl, classes, "salary", true)
	if err != nil {
		t.Fatal(err)
	}
	equal, err := MeasureMaxEMD(tbl, classes, "salary", false)
	if err != nil {
		t.Fatal(err)
	}
	// Both classes concentrate on one end of the ordered domain, so the
	// ordered EMD should be strictly larger than 0 and also larger than the
	// equal-distance EMD divided by domain effects; the key property is that
	// the ordered distance notices how far the mass moved.
	if ordered <= 0 || equal <= 0 {
		t.Fatalf("EMDs should be positive: ordered=%v equal=%v", ordered, equal)
	}
	if ordered <= 0.3 {
		t.Errorf("ordered EMD %v suspiciously small for fully separated classes", ordered)
	}
}

func TestCheckAll(t *testing.T) {
	tbl, classes := buildTable(t, anonRows())
	ok, failed, err := CheckAll(tbl, classes,
		KAnonymity{K: 2},
		DistinctLDiversity{L: 2, Sensitive: "diagnosis"},
	)
	if err != nil || !ok || failed != "" {
		t.Errorf("CheckAll = %v, %q, %v", ok, failed, err)
	}
	ok, failed, err = CheckAll(tbl, classes,
		KAnonymity{K: 2},
		DistinctLDiversity{L: 5, Sensitive: "diagnosis"},
	)
	if err != nil || ok {
		t.Errorf("CheckAll should fail: %v, %v", ok, err)
	}
	if failed == "" {
		t.Error("CheckAll should report the failed criterion")
	}
	_, failed, err = CheckAll(tbl, classes, KAnonymity{K: 0})
	if err == nil || failed == "" {
		t.Error("CheckAll should propagate errors with the criterion name")
	}
}

func TestDeltaPresence(t *testing.T) {
	pubSchema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "zip", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
	)
	public, err := dataset.FromRows(pubSchema, []dataset.Row{
		{"[20-30)", "303**"}, {"[20-30)", "303**"}, {"[20-30)", "303**"}, {"[20-30)", "303**"},
		{"[30-40)", "303**"}, {"[30-40)", "303**"}, {"[30-40)", "303**"},
	})
	if err != nil {
		t.Fatal(err)
	}
	privSchema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "zip", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "diagnosis", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	private, err := dataset.FromRows(privSchema, []dataset.Row{
		{"[20-30)", "303**", "flu"},
		{"[20-30)", "303**", "hiv"},
		{"[30-40)", "303**", "flu"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := MeasurePresence(private, public)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-1.0/3) > 1e-9 || math.Abs(hi-0.5) > 1e-9 {
		t.Errorf("presence bounds = [%v, %v], want [1/3, 1/2]", lo, hi)
	}
	v, err := DeltaPresence{DeltaMin: 0.2, DeltaMax: 0.6, Public: public}.Evaluate(private, nil)
	if err != nil || !v.Satisfied || v.Measured != hi || v.Target != 0.6 {
		t.Errorf("presence verdict = %+v, %v", v, err)
	}
	v, _ = DeltaPresence{DeltaMin: 0.4, DeltaMax: 0.6, Public: public}.Evaluate(private, nil)
	if v.Satisfied {
		t.Error("delta-min violation not detected")
	}
	v, _ = DeltaPresence{DeltaMin: 0.0, DeltaMax: 0.4, Public: public}.Evaluate(private, nil)
	if v.Satisfied {
		t.Error("delta-max violation not detected")
	}
	if _, err := (DeltaPresence{DeltaMin: 0.9, DeltaMax: 0.1, Public: public}).Evaluate(private, nil); !errors.Is(err, ErrParameter) {
		t.Errorf("inverted delta range error = %v", err)
	}
	if _, _, err := MeasurePresence(private, nil); err == nil {
		t.Error("nil public table accepted")
	}
	if got := (DeltaPresence{DeltaMin: 0.1, DeltaMax: 0.5}).Name(); got != "(0.10,0.50)-presence" {
		t.Errorf("Name = %q", got)
	}
}

// Property: for random small releases, MeasureK equals the smallest class
// size, and the k-anonymity verdict agrees with comparing against MeasureK.
func TestMeasureKConsistencyProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%5) + 1
		rows := propertyRows(seed)
		schema := dataset.MustSchema(
			dataset.Attribute{Name: "qi", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
			dataset.Attribute{Name: "s", Kind: dataset.Sensitive, Type: dataset.Categorical},
		)
		tbl, err := dataset.FromRows(schema, rows)
		if err != nil {
			return false
		}
		classes, err := tbl.GroupByQuasiIdentifier()
		if err != nil {
			return false
		}
		ok, err := check(KAnonymity{K: k}, tbl, classes)
		if err != nil {
			return false
		}
		return ok == (MeasureK(classes) >= k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// propertyRows builds a small deterministic pseudo-random release.
func propertyRows(seed int64) []dataset.Row {
	qis := []string{"a", "b", "c"}
	ss := []string{"x", "y", "z"}
	n := 6 + int(seed%7+7)%7
	rows := make([]dataset.Row, 0, n)
	state := uint64(seed)
	next := func(m int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % m
	}
	for i := 0; i < n; i++ {
		rows = append(rows, dataset.Row{qis[next(3)], ss[next(3)]})
	}
	return rows
}

// TestAlphaKMeasured checks the (α,k) measurement against the hand-built
// table: class one is 1/3-homogeneous per value, class two has flu at 2/3.
func TestAlphaKMeasured(t *testing.T) {
	tbl, classes := buildTable(t, anonRows())
	v, err := AlphaKAnonymity{K: 1, Alpha: 0.5, Sensitive: "diagnosis"}.Evaluate(tbl, classes)
	if err != nil {
		t.Fatal(err)
	}
	alpha := v.Measured
	if want := 2.0 / 3.0; math.Abs(alpha-want) > 1e-12 || v.Target != 0.5 || v.Satisfied {
		t.Errorf("alpha verdict = %+v, want measured %v, unsatisfied", v, want)
	}
	// Consistency with the checkable criterion: the measured α is the
	// smallest cap the release satisfies.
	if ok, err := check(AlphaKAnonymity{K: 1, Alpha: alpha, Sensitive: "diagnosis"}, tbl, classes); err != nil || !ok {
		t.Errorf("check at measured alpha = %v, %v", ok, err)
	}
	if ok, _ := check(AlphaKAnonymity{K: 1, Alpha: alpha - 0.01, Sensitive: "diagnosis"}, tbl, classes); ok {
		t.Error("check below measured alpha should fail")
	}
}

// TestRecursiveCMeasured checks the recursive (c,l) measurement: at l=2,
// class two has counts (2,1) so the worst r1/tail ratio is 2/1.
func TestRecursiveCMeasured(t *testing.T) {
	tbl, classes := buildTable(t, anonRows())
	v, err := RecursiveCLDiversity{C: 3, L: 2, Sensitive: "diagnosis"}.Evaluate(tbl, classes)
	if err != nil {
		t.Fatal(err)
	}
	c := v.Measured
	if want := 2.0; c != want || v.Target != 3 || !v.Satisfied {
		t.Errorf("recursive verdict (l=2) = %+v, want measured %v, satisfied", v, want)
	}
	// Any c strictly above the measurement satisfies the criterion; the
	// measurement itself does not (strict inequality).
	if ok, err := check(RecursiveCLDiversity{C: c + 0.01, L: 2, Sensitive: "diagnosis"}, tbl, classes); err != nil || !ok {
		t.Errorf("check above measured c = %v, %v", ok, err)
	}
	if ok, _ := check(RecursiveCLDiversity{C: c, L: 2, Sensitive: "diagnosis"}, tbl, classes); ok {
		t.Error("check at measured c should fail (strict inequality)")
	}
	// A class with fewer than l distinct values satisfies no c.
	v4, err := RecursiveCLDiversity{C: 3, L: 4, Sensitive: "diagnosis"}.Evaluate(tbl, classes)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v4.Measured, 1) || v4.Satisfied {
		t.Errorf("recursive verdict (l=4) = %+v, want +Inf, unsatisfied", v4)
	}
	if _, err := (RecursiveCLDiversity{C: 3, L: 0, Sensitive: "diagnosis"}).Evaluate(tbl, classes); !errors.Is(err, ErrParameter) {
		t.Errorf("l=0 error = %v, want ErrParameter", err)
	}
}

// TestRecursiveBoundary pins the strict inequality at a float boundary:
// counts (55, 25) give r1/tail = 2.2 exactly, while 2.2*25 rounds to
// 55.00000000000001, so comparing r1 < c*tail would accept c = 2.2. The
// verdict compares the published measurement with c and refuses it.
func TestRecursiveBoundary(t *testing.T) {
	rows := make([]dataset.Row, 0, 80)
	for i := 0; i < 80; i++ {
		s := "a"
		if i >= 55 {
			s = "b"
		}
		rows = append(rows, dataset.Row{"[20-30)", "303**", s})
	}
	tbl, classes := buildTable(t, rows)
	v, err := RecursiveCLDiversity{C: 2.2, L: 2, Sensitive: "diagnosis"}.Evaluate(tbl, classes)
	if err != nil {
		t.Fatal(err)
	}
	if v.Measured != 2.2 || v.Target != 2.2 || v.Satisfied {
		t.Errorf("boundary verdict = %+v, want measured 2.2, target 2.2, unsatisfied", v)
	}
	if ok, _ := check(RecursiveCLDiversity{C: 2.2, L: 2, Sensitive: "diagnosis"}, tbl, classes); ok {
		t.Error("CheckAll accepted r1/tail = c")
	}
}

// TestDeltaPresenceSeparatorTuples measures δ-presence over public tuples
// that join to one signature string: ("a\x1fb", "c") and ("a", "b\x1fc").
// Only the first is in the private table, so its presence is 1 and the
// other's is 0.
func TestDeltaPresenceSeparatorTuples(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "x", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "y", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
	)
	public, err := dataset.FromRows(schema, []dataset.Row{{"a\x1fb", "c"}, {"a", "b\x1fc"}})
	if err != nil {
		t.Fatal(err)
	}
	private, err := dataset.FromRows(schema, []dataset.Row{{"a\x1fb", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := MeasurePresence(private, public)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi != 1 {
		t.Fatalf("presence bounds = [%v, %v], want [0, 1]", lo, hi)
	}
}

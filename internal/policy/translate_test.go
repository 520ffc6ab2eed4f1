package policy

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/ppdp/ppdp/internal/privacy"
)

// TestFromFlatCanonical checks FromFlat's canonical output for every
// flat-expressible configuration: one criterion per enabled parameter in the
// fixed type order, the recursive c default filled, the suppression budget
// only when positive.
func TestFromFlatCanonical(t *testing.T) {
	cases := []struct {
		flat Flat
		want string
	}{
		{Flat{K: 10}, `{"criteria":[{"type":"k-anonymity","k":10}]}`},
		{Flat{K: 5, MaxSuppression: 0.02},
			`{"criteria":[{"type":"k-anonymity","k":5}],"suppression":{"max_fraction":0.02}}`},
		{Flat{K: 5, L: 3, Sensitive: "disease"},
			`{"criteria":[{"type":"k-anonymity","k":5},{"type":"distinct-l-diversity","l":3,"sensitive":"disease"}]}`},
		{Flat{K: 5, L: 2, DiversityMode: FlatEntropy, Sensitive: "disease"},
			`{"criteria":[{"type":"k-anonymity","k":5},{"type":"entropy-l-diversity","l":2,"sensitive":"disease"}]}`},
		{Flat{K: 5, L: 2, DiversityMode: FlatRecursive, C: 2.5, Sensitive: "disease"},
			`{"criteria":[{"type":"k-anonymity","k":5},{"type":"recursive-cl-diversity","l":2,"c":2.5,"sensitive":"disease"}]}`},
		{Flat{K: 4, T: 0.25, OrderedSensitive: true, Sensitive: "salary"},
			`{"criteria":[{"type":"k-anonymity","k":4},{"type":"t-closeness","t":0.25,"sensitive":"salary","ordered":true}]}`},
		{Flat{L: 3, Sensitive: "disease"}, // anatomy-style, no k
			`{"criteria":[{"type":"distinct-l-diversity","l":3,"sensitive":"disease"}]}`},
		{Flat{K: 8, L: 4, T: 0.3, Sensitive: "disease", MaxSuppression: 0.1},
			`{"criteria":[{"type":"k-anonymity","k":8},{"type":"distinct-l-diversity","l":4,"sensitive":"disease"},` +
				`{"type":"t-closeness","t":0.3,"sensitive":"disease"}],"suppression":{"max_fraction":0.1}}`},
	}
	for i, tc := range cases {
		got, err := FromFlat(tc.flat)
		if err != nil {
			t.Fatalf("case %d: FromFlat: %v", i, err)
		}
		want := mustParse(t, tc.want)
		gotJSON, _ := got.Encode()
		wantJSON, _ := want.Encode()
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("case %d: FromFlat(%+v) =\n%s\nwant\n%s", i, tc.flat, gotJSON, wantJSON)
		}
		// Already canonical: the version is pinned and re-canonicalizing is
		// the identity.
		if canon, _ := got.Canonical(); got.Version != Version || !reflect.DeepEqual(canon, got) {
			t.Errorf("case %d: FromFlat output is not canonical: %+v", i, got)
		}
	}
}

func TestFromFlatErrors(t *testing.T) {
	if _, err := FromFlat(Flat{}); !errors.Is(err, ErrNoCriteria) {
		t.Errorf("empty flat error = %v, want ErrNoCriteria", err)
	}
	if _, err := FromFlat(Flat{K: 3, L: 2, DiversityMode: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown diversity mode") {
		t.Errorf("bogus mode error = %v", err)
	}
	// L=1 is the flat "disabled" threshold, same as the legacy pipeline.
	pol, err := FromFlat(Flat{K: 3, L: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Has(DistinctLDiversity) {
		t.Error("L=1 produced a diversity criterion")
	}
}

// TestFromFlatFor covers the edge translation: the declared policy is the
// full FromFlat translation, the enforced one keeps only what the algorithm
// supports (the legacy silent ignore), Anatomy reads l whatever the
// diversity mode, and outside input out of range is rejected.
func TestFromFlatFor(t *testing.T) {
	all := []string{KAnonymity, AlphaKAnonymity, DistinctLDiversity, EntropyLDiversity, RecursiveCLDiversity, TCloseness}
	kOnly := []string{KAnonymity}
	bucket := []string{DistinctLDiversity}

	// Everything supported: one policy, the same pointer.
	f := Flat{K: 5, L: 2, DiversityMode: FlatEntropy, T: 0.3, Sensitive: "d", MaxSuppression: 0.02}
	enforced, declared, err := FromFlatFor(f, all)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := FromFlat(f); enforced != declared || !declared.Equal(want) {
		t.Errorf("all supported: enforced %v, declared %v, want one policy %v", enforced, declared, want)
	}

	// Unenforced criteria stay declared (measured, echoed) but do not run;
	// the suppression budget is kept. Neither policy is the other.
	f = Flat{K: 5, L: 2, T: 0.01, Sensitive: "salary", MaxSuppression: 0.05}
	enforced, declared, err = FromFlatFor(f, kOnly)
	if err != nil {
		t.Fatal(err)
	}
	if got := enforced.CriterionTypes(); !reflect.DeepEqual(got, []string{KAnonymity}) || enforced.SuppressionBudget() != 0.05 {
		t.Errorf("k-only enforced = %v (budget %v)", got, enforced.SuppressionBudget())
	}
	if got := declared.CriterionTypes(); !reflect.DeepEqual(got, []string{KAnonymity, DistinctLDiversity, TCloseness}) {
		t.Errorf("k-only declared = %v", got)
	}

	// Anatomy: the flat l is the bucket size for every diversity mode, and
	// a flat k it cannot enforce is declared only.
	for _, mode := range []string{"", FlatDistinct, FlatEntropy, FlatRecursive} {
		enforced, declared, err := FromFlatFor(Flat{K: 10, L: 3, DiversityMode: mode, Sensitive: "d"}, bucket)
		if err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		want := mustParse(t, `{"criteria":[{"type":"distinct-l-diversity","l":3,"sensitive":"d"}]}`)
		if !enforced.Equal(want) {
			t.Errorf("mode %q: enforced = %s, want %s", mode, enforced.Describe(), want.Describe())
		}
		if !declared.Has(KAnonymity) || len(declared.Criteria) != 2 {
			t.Errorf("mode %q: declared = %s", mode, declared.Describe())
		}
	}
	if c, _ := mustFromFlatFor(t, Flat{L: 2, DiversityMode: FlatRecursive}, all).Find(RecursiveCLDiversity); c.C != 3 {
		t.Errorf("recursive c default = %v, want 3", c.C)
	}
	if c, _ := mustFromFlatFor(t, Flat{L: 2, DiversityMode: FlatRecursive, C: -1}, all).Find(RecursiveCLDiversity); c.C != 3 {
		t.Errorf("recursive c=-1 = %v, want the default 3", c.C)
	}

	// Nothing enforceable, or nothing enabled: no policy to run, so the
	// algorithm's validation reports what it misses.
	if enforced, declared, err := FromFlatFor(Flat{K: 10}, bucket); err != nil || enforced != nil || !declared.Has(KAnonymity) {
		t.Errorf("anatomy without l = %v, %v, %v", enforced, declared, err)
	}
	if enforced, declared, err := FromFlatFor(Flat{K: -3, L: 1}, all); err != nil || enforced != nil || declared != nil {
		t.Errorf("no criteria = %v, %v, %v", enforced, declared, err)
	}

	for _, bad := range []Flat{
		{K: 5, L: -1}, {K: 5, T: -0.1}, {K: 5, T: 1.5},
		{K: 5, MaxSuppression: -0.1}, {K: 5, MaxSuppression: 2},
		{K: 5, L: 2, DiversityMode: "bogus"},
	} {
		if _, _, err := FromFlatFor(bad, all); err == nil {
			t.Errorf("FromFlatFor(%+v) accepted out-of-range input", bad)
		}
	}
}

func mustFromFlatFor(t *testing.T, f Flat, supported []string) *Policy {
	t.Helper()
	_, declared, err := FromFlatFor(f, supported)
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// TestAttributeCriteria checks the privacy.Criterion instantiation,
// including default-sensitive resolution.
func TestAttributeCriteria(t *testing.T) {
	p := mustParse(t, `{"criteria":[
		{"type":"k-anonymity","k":5},
		{"type":"alpha-k-anonymity","k":5,"alpha":0.6},
		{"type":"distinct-l-diversity","l":2},
		{"type":"entropy-l-diversity","l":2.5},
		{"type":"recursive-cl-diversity","l":2,"c":4},
		{"type":"t-closeness","t":0.3,"ordered":true}
	]}`)
	crits, err := p.AttributeCriteria("disease")
	if err != nil {
		t.Fatal(err)
	}
	want := []privacy.Criterion{
		privacy.AlphaKAnonymity{K: 5, Alpha: 0.6, Sensitive: "disease"},
		privacy.DistinctLDiversity{L: 2, Sensitive: "disease"},
		privacy.EntropyLDiversity{L: 2.5, Sensitive: "disease"},
		privacy.RecursiveCLDiversity{C: 4, L: 2, Sensitive: "disease"},
		privacy.TCloseness{T: 0.3, Sensitive: "disease", Ordered: true},
	}
	if !reflect.DeepEqual(crits, want) {
		t.Errorf("AttributeCriteria = %#v\nwant %#v", crits, want)
	}
	// No default and no named sensitive: an error, not a silent skip.
	if _, err := p.AttributeCriteria(""); err == nil ||
		!strings.Contains(err.Error(), "sensitive attribute") {
		t.Errorf("missing sensitive error = %v", err)
	}
	// k-anonymity alone needs no sensitive attribute.
	kOnly := mustParse(t, `{"criteria":[{"type":"k-anonymity","k":5}]}`)
	if crits, err := kOnly.AttributeCriteria(""); err != nil || len(crits) != 0 {
		t.Errorf("k-only AttributeCriteria = %v, %v", crits, err)
	}
}

// TestChecker pins the one policy → privacy mapping: each per-table
// criterion maps to its model against its own sensitive attribute, the
// recursive c defaulting to 3, and m-invariance (a release-history guard)
// and unknown types map to none.
func TestChecker(t *testing.T) {
	for _, tc := range []struct {
		c    Criterion
		want privacy.Criterion
	}{
		{Criterion{Type: KAnonymity, K: 4}, privacy.KAnonymity{K: 4}},
		{Criterion{Type: RecursiveCLDiversity, L: 2, Sensitive: "s"}, privacy.RecursiveCLDiversity{C: 3, L: 2, Sensitive: "s"}},
		{Criterion{Type: TCloseness, T: 0.2, Ordered: true}, privacy.TCloseness{T: 0.2, Ordered: true}},
		{Criterion{Type: MInvariance, M: 2, ID: "id", Sensitive: "s"}, nil},
		{Criterion{Type: "bogus"}, nil},
	} {
		if got := tc.c.Checker(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%+v.Checker() = %#v, want %#v", tc.c, got, tc.want)
		}
	}
}

package policy

import (
	"bytes"
	"strings"
	"testing"
)

func mustParse(t *testing.T, doc string) *Policy {
	t.Helper()
	p, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse(%s): %v", doc, err)
	}
	return p
}

// TestRoundTripStable locks in the canonicalization contract: decode →
// canonicalize → encode is stable, i.e. re-parsing the encoded form encodes
// to the same bytes, regardless of criterion order or omitted defaults in
// the input.
func TestRoundTripStable(t *testing.T) {
	docs := []string{
		`{"version":1,"criteria":[{"type":"k-anonymity","k":10}]}`,
		// Criteria out of canonical order, recursive c omitted.
		`{"criteria":[
			{"type":"t-closeness","t":0.2,"sensitive":"disease","ordered":true},
			{"type":"recursive-cl-diversity","l":3},
			{"type":"k-anonymity","k":5}
		],"suppression":{"max_fraction":0.02}}`,
		`{"version":1,"criteria":[
			{"type":"alpha-k-anonymity","k":4,"alpha":0.5,"sensitive":"diagnosis"},
			{"type":"entropy-l-diversity","l":2.5,"sensitive":"diagnosis"}
		]}`,
		// A zero suppression budget canonicalizes away.
		`{"criteria":[{"type":"k-anonymity","k":2}],"suppression":{"max_fraction":0}}`,
	}
	for _, doc := range docs {
		p := mustParse(t, doc)
		enc1, err := p.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		p2, err := Parse(enc1)
		if err != nil {
			t.Fatalf("re-Parse(%s): %v", enc1, err)
		}
		enc2, err := p2.Encode()
		if err != nil {
			t.Fatalf("re-Encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Errorf("round trip not stable:\nfirst:  %s\nsecond: %s", enc1, enc2)
		}
		if !p.Equal(p2) {
			t.Errorf("Equal(%s) = false after round trip", doc)
		}
	}
}

// TestCanonicalOrderAndDefaults pins the canonical form: fixed criterion
// order, version filled, recursive c defaulted to 3.
func TestCanonicalOrderAndDefaults(t *testing.T) {
	p := mustParse(t, `{"criteria":[
		{"type":"t-closeness","t":0.1},
		{"type":"recursive-cl-diversity","l":2},
		{"type":"alpha-k-anonymity","k":3,"alpha":0.4},
		{"type":"k-anonymity","k":3}
	]}`)
	want := []string{KAnonymity, AlphaKAnonymity, RecursiveCLDiversity, TCloseness}
	got := p.CriterionTypes()
	if len(got) != len(want) {
		t.Fatalf("types = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("types = %v, want %v", got, want)
		}
	}
	if p.Version != Version {
		t.Errorf("Version = %d", p.Version)
	}
	rc, _ := p.Find(RecursiveCLDiversity)
	if rc.C != 3 {
		t.Errorf("recursive c default = %v, want 3", rc.C)
	}
}

// TestStrictRejection covers every strict-decode failure mode: unknown
// criterion types, unknown fields (top-level, per-criterion, wrong-criterion
// parameters), duplicate criteria, bad versions, out-of-range parameters and
// trailing garbage.
func TestStrictRejection(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"unknown type", `{"criteria":[{"type":"z-anonymity","k":3}]}`, "unknown criterion type"},
		{"m-invariance m too small", `{"criteria":[{"type":"m-invariance","m":1,"id":"pid"}]}`, "m must be at least 2"},
		{"m-invariance without id", `{"criteria":[{"type":"m-invariance","m":3}]}`, "id column is required"},
		{"missing type", `{"criteria":[{"k":3}]}`, "missing the required"},
		{"unknown criterion field", `{"criteria":[{"type":"k-anonymity","k":3,"sensative":"x"}]}`, "unknown field"},
		{"foreign parameter", `{"criteria":[{"type":"k-anonymity","k":3,"t":0.2}]}`, `unknown field "t"`},
		{"ordered on diversity", `{"criteria":[{"type":"distinct-l-diversity","l":2,"ordered":true}]}`, `unknown field "ordered"`},
		{"unknown top-level field", `{"criteria":[{"type":"k-anonymity","k":3}],"suppressionn":{}}`, "unknown field"},
		{"duplicate criterion", `{"criteria":[{"type":"k-anonymity","k":3},{"type":"k-anonymity","k":5}]}`, "duplicate criterion"},
		{"bad version", `{"version":2,"criteria":[{"type":"k-anonymity","k":3}]}`, "unsupported version"},
		{"no criteria", `{"version":1,"criteria":[]}`, "at least one criterion"},
		{"k out of range", `{"criteria":[{"type":"k-anonymity","k":0}]}`, "k must be at least 1"},
		{"alpha out of range", `{"criteria":[{"type":"alpha-k-anonymity","k":2,"alpha":1.5}]}`, "alpha must be in"},
		{"fractional distinct l", `{"criteria":[{"type":"distinct-l-diversity","l":2.5}]}`, "must be an integer"},
		{"entropy l too small", `{"criteria":[{"type":"entropy-l-diversity","l":1}]}`, "greater than 1"},
		{"t out of range", `{"criteria":[{"type":"t-closeness","t":1.5}]}`, "t must be in"},
		{"t zero", `{"criteria":[{"type":"t-closeness","t":0}]}`, "t must be in"},
		{"suppression out of range", `{"criteria":[{"type":"k-anonymity","k":2}],"suppression":{"max_fraction":1.5}}`, "max_fraction"},
		{"wrong value type", `{"criteria":[{"type":"k-anonymity","k":"ten"}]}`, "cannot unmarshal"},
		{"trailing data", `{"criteria":[{"type":"k-anonymity","k":2}]} {"version":1}`, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestDescribe(t *testing.T) {
	p := mustParse(t, `{"criteria":[
		{"type":"k-anonymity","k":10},
		{"type":"t-closeness","t":0.2,"sensitive":"disease"}
	],"suppression":{"max_fraction":0.05}}`)
	got := p.Describe()
	want := "k-anonymity(k=10) + t-closeness(t=0.2, sensitive=disease) [suppress<=0.05]"
	if got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
}

func TestHelpers(t *testing.T) {
	p := mustParse(t, `{"criteria":[
		{"type":"k-anonymity","k":7},
		{"type":"distinct-l-diversity","l":4}
	]}`)
	if p.KAnonymityK() != 7 {
		t.Errorf("KAnonymityK = %d", p.KAnonymityK())
	}
	if p.BucketL() != 4 {
		t.Errorf("BucketL = %d", p.BucketL())
	}
	resolved := p.ResolveSensitive("disease")
	if c, _ := resolved.Find(DistinctLDiversity); c.Sensitive != "disease" {
		t.Errorf("ResolveSensitive: %+v", c)
	}
	if c, _ := p.Find(DistinctLDiversity); c.Sensitive != "" {
		t.Error("ResolveSensitive mutated the receiver")
	}
}

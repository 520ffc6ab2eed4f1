package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/ppdp/ppdp/internal/synth"
)

var updateFlatGolden = flag.Bool("update-flat-golden", false, "rewrite testdata/flat_golden.txt from the current tree")

// flatGoldenCase is one flat-parameter POST /v1/anonymize request of the
// byte-identity matrix.
type flatGoldenCase struct {
	name string
	body map[string]any
}

// flatGoldenCases is the matrix: every algorithm through the deprecated flat
// parameters, with the criteria each one does not enforce (declared,
// measured and echoed but not run), every Anatomy diversity mode, recursive
// c, ordered EMD with and without t, and suppression budgets; then the flat
// requests the service rejects.
func flatGoldenCases() []flatGoldenCase {
	qi := []string{"age", "sex", "education", "marital-status", "race"}
	var cases []flatGoldenCase
	add := func(name string, body map[string]any) {
		cases = append(cases, flatGoldenCase{name, body})
	}
	with := func(base map[string]any, kv ...any) map[string]any {
		out := map[string]any{}
		for k, v := range base {
			out[k] = v
		}
		for i := 0; i < len(kv); i += 2 {
			out[kv[i].(string)] = kv[i+1]
		}
		return out
	}
	census := map[string]any{"dataset": "c"}
	add("mondrian/defaults", census)
	add("mondrian/k5-l2", with(census, "k", 5, "l", 2, "sensitive", "occupation"))
	add("mondrian/k5-l2-entropy", with(census, "k", 5, "l", 2, "diversity_mode", "entropy", "sensitive", "occupation"))
	add("mondrian/k5-l2-recursive-c4", with(census, "k", 5, "l", 2, "diversity_mode", "recursive", "c", 4, "sensitive", "occupation"))
	add("mondrian/k5-l2-recursive-cdefault", with(census, "k", 5, "l", 2, "diversity_mode", "recursive", "sensitive", "occupation"))
	add("mondrian/k5-t0.6-ordered", with(census, "k", 5, "t", 0.6, "ordered_sensitive", true, "sensitive", "occupation"))
	add("mondrian/k5-ordered-only", with(census, "k", 5, "ordered_sensitive", true, "sensitive", "occupation"))
	add("mondrian/k5-suppression", with(census, "k", 5, "max_suppression", 0.05))
	add("mondrian/k5-strict-qi", with(census, "k", 5, "strict_mondrian", true, "quasi_identifiers", qi))
	add("mondrian/k5-include-rows", map[string]any{"dataset": "tiny", "k": 5, "include_rows": true})
	for _, alg := range []string{"incognito", "topdown"} {
		base := map[string]any{"dataset": "c", "algorithm": alg, "quasi_identifiers": qi}
		add(alg+"/k5", with(base, "k", 5))
		add(alg+"/k5-l2", with(base, "k", 5, "l", 2, "sensitive", "occupation"))
		add(alg+"/k5-t0.5", with(base, "k", 5, "t", 0.5, "sensitive", "occupation"))
	}
	for _, alg := range []string{"datafly", "samarati", "kmember"} {
		base := map[string]any{"dataset": "c", "algorithm": alg, "quasi_identifiers": qi}
		add(alg+"/defaults", base)
		add(alg+"/k5", with(base, "k", 5))
		add(alg+"/k5-l2", with(base, "k", 5, "l", 2))
		add(alg+"/k5-l2-occupation", with(base, "k", 5, "l", 2, "sensitive", "occupation"))
		add(alg+"/k5-l2-entropy", with(base, "k", 5, "l", 2, "diversity_mode", "entropy", "sensitive", "occupation"))
		add(alg+"/k5-l2-recursive-c2", with(base, "k", 5, "l", 2, "diversity_mode", "recursive", "c", 2, "sensitive", "occupation"))
		add(alg+"/k5-t0.3", with(base, "k", 5, "t", 0.3, "sensitive", "occupation"))
		add(alg+"/k5-t0.3-ordered", with(base, "k", 5, "t", 0.3, "ordered_sensitive", true, "sensitive", "occupation"))
		add(alg+"/k5-ordered-only", with(base, "k", 5, "ordered_sensitive", true, "sensitive", "occupation"))
		add(alg+"/k5-suppression0", with(base, "k", 5, "max_suppression", 0))
		add(alg+"/k5-suppression0.1-l3-t0.4", with(base, "k", 5, "max_suppression", 0.1, "l", 3, "t", 0.4, "sensitive", "occupation"))
	}
	hospital := map[string]any{"dataset": "h", "algorithm": "anatomy"}
	add("anatomy/l3", with(hospital, "l", 3))
	for _, mode := range []string{"distinct", "entropy", "recursive"} {
		add("anatomy/l3-"+mode, with(hospital, "l", 3, "diversity_mode", mode))
	}
	add("anatomy/l3-k5", with(hospital, "l", 3, "k", 5))
	add("anatomy/l3-k5-t0.4-suppression", with(hospital, "l", 3, "k", 5, "t", 0.4, "max_suppression", 0.1))

	// Rejections: status and error code.
	add("reject/negative-l", with(census, "k", 5, "l", -1))
	add("reject/negative-k", with(census, "k", -3))
	add("reject/t-above-1", with(census, "k", 5, "t", 1.5))
	add("reject/t-negative", with(census, "k", 5, "t", -0.2))
	add("reject/suppression-above-1", with(census, "k", 5, "max_suppression", 2))
	add("reject/suppression-negative", with(census, "k", 5, "max_suppression", -0.1))
	add("reject/unknown-diversity-mode", with(census, "k", 5, "l", 2, "diversity_mode", "bogus"))
	add("reject/anatomy-without-l", map[string]any{"dataset": "h", "algorithm": "anatomy"})
	add("reject/anatomy-l1", map[string]any{"dataset": "h", "algorithm": "anatomy", "l": 1})
	add("reject/republish-flat", map[string]any{"dataset": "c", "algorithm": "republish", "k": 5})
	add("reject/policy-and-flat", with(census, "k", 5, "policy", policyDoc(5)))
	return cases
}

// stripVolatile removes the two request-dependent top-level fields of an
// anonymize response: the release id and the wall-clock elapsed_ms.
var stripVolatile = regexp.MustCompile(`(?m)^  "(release_id|elapsed_ms)": .*\n`)

// postRaw issues a JSON POST and returns the status and raw body bytes.
func postRaw(t testing.TB, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestFlatAnonymizeGolden pins the deprecated flat-parameter surface byte for
// byte: for the whole matrix, the anonymize response (release_id and
// elapsed_ms stripped), the result-cache key, and for rejections the status
// and error code must match testdata/flat_golden.txt. A repeat of each
// request (a cache hit) must serve the same bytes, and the asynchronous job
// path must record the same policy the synchronous response echoes.
func TestFlatAnonymizeGolden(t *testing.T) {
	ts, srv := newTestServer(t, Config{Workers: 2})
	for _, ds := range []struct {
		name, family string
		rows         int
	}{{"c", "census", 400}, {"h", "hospital", 400}, {"tiny", "census", 40}} {
		fam, err := synth.FamilyByName(ds.family)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddDataset(ds.name, ds.family, fam.Generate(ds.rows, 9), fam.Hierarchies()); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	for _, tc := range flatGoldenCases() {
		status, raw := postRaw(t, ts.URL+"/v1/anonymize", tc.body)
		fmt.Fprintf(&got, "### %s %d\n", tc.name, status)
		if status != http.StatusOK {
			var env errorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("%s: undecodable error body %s", tc.name, raw)
			}
			fmt.Fprintf(&got, "code: %s\n", env.Error.Code)
			continue
		}
		stripped := stripVolatile.ReplaceAll(raw, nil)
		got.Write(stripped)
		if status2, raw2 := postRaw(t, ts.URL+"/v1/anonymize", tc.body); status2 != status ||
			!bytes.Equal(stripVolatile.ReplaceAll(raw2, nil), stripped) {
			t.Errorf("%s: repeated request (cache hit) served different bytes:\n%s", tc.name, raw2)
		}
		var req anonymizeRequest
		buf, _ := json.Marshal(tc.body)
		if err := json.Unmarshal(buf, &req); err != nil {
			t.Fatal(err)
		}
		p := srv.prepareAnonymize(httptest.NewRecorder(), req)
		if p == nil {
			t.Fatalf("%s: prepareAnonymize rejected a request the handler accepted", tc.name)
		}
		key, err := cacheKey(p)
		if err != nil {
			t.Fatal(err)
		}
		keyJSON, _ := json.Marshal(key)
		fmt.Fprintf(&got, "cache_key: %s\n", keyJSON)

		var resp struct {
			Policy json.RawMessage `json:"policy"`
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("%s: %v: %q", tc.name, err, raw)
		}
		jstatus, jbody := doJSON(t, "POST", ts.URL+"/v1/jobs", tc.body)
		if jstatus != http.StatusAccepted {
			t.Fatalf("%s: submit job: %d %v", tc.name, jstatus, jbody)
		}
		job := pollJob(t, ts, jbody["id"].(string))
		jobPolicy, _ := json.Marshal(job["policy"])
		var want any
		_ = json.Unmarshal(resp.Policy, &want)
		wantPolicy, _ := json.Marshal(want)
		if !bytes.Equal(jobPolicy, wantPolicy) {
			t.Errorf("%s: job policy %s, anonymize echo %s", tc.name, jobPolicy, wantPolicy)
		}
	}
	path := filepath.Join("testdata", "flat_golden.txt")
	if *updateFlatGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("flat-parameter responses differ from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("flat-parameter responses differ from %s in length: %d vs %d lines", path, len(gotLines), len(wantLines))
	}
}

// TestFlatAnatomyDiversityModes locks in the legacy contract that anatomy
// reads the flat l as its bucket size whatever diversity_mode says (the mode
// is a parameter anatomy has never read), while the response echoes the
// variant the request declared.
func TestFlatAnatomyDiversityModes(t *testing.T) {
	ts, srv := newTestServer(t, Config{Workers: 1})
	if err := srv.AddDataset("h", "hospital", synth.Hospital(600, 12), synth.HospitalHierarchies()); err != nil {
		t.Fatal(err)
	}
	for mode, declared := range map[string]string{
		"": "distinct-l-diversity", "distinct": "distinct-l-diversity",
		"entropy": "entropy-l-diversity", "recursive": "recursive-cl-diversity",
	} {
		status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{
			"dataset": "h", "algorithm": "anatomy", "l": 3, "diversity_mode": mode, "sensitive": "diagnosis"})
		if status != http.StatusOK || body["rows"] != float64(600) {
			t.Fatalf("mode %q: %d %v", mode, status, body)
		}
		criteria := body["policy"].(map[string]any)["criteria"].([]any)
		if len(criteria) != 1 || criteria[0].(map[string]any)["type"] != declared {
			t.Errorf("mode %q: policy echo %v, want one %s criterion", mode, criteria, declared)
		}
	}
}

// TestFlatUnenforcedCriteriaStillVerified locks in "trust but verify" for the
// flat parameters: a criterion the algorithm cannot enforce (datafly +
// t-closeness) is still declared, measured and reported violated, exactly as
// the pre-policy pipeline did — only the run itself ignores it.
func TestFlatUnenforcedCriteriaStillVerified(t *testing.T) {
	ts, srv := newTestServer(t, Config{Workers: 1})
	withCensus(t, srv, 500)
	// t=0.01 is tight enough that the release violates it.
	status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{
		"dataset": "census", "algorithm": "datafly", "k": 5, "t": 0.01, "sensitive": "salary",
		"quasi_identifiers": []string{"age", "sex", "education", "marital-status", "race"}})
	if status != http.StatusOK {
		t.Fatalf("anonymize: %d %v", status, body)
	}
	var types []any
	for _, c := range body["policy"].(map[string]any)["criteria"].([]any) {
		types = append(types, c.(map[string]any)["type"])
	}
	if len(types) != 2 || types[1] != "t-closeness" {
		t.Fatalf("declared policy = %v, want k-anonymity + t-closeness", types)
	}
	tc, ok := body["measurements"].(map[string]any)["criteria"].(map[string]any)["t-closeness"].(map[string]any)
	if !ok {
		t.Fatalf("no t-closeness measurement: %v", body["measurements"])
	}
	if tc["satisfied"] != false || tc["measured"].(float64) <= 0.01 {
		t.Fatalf("t-closeness measurement = %v, want a violation of t=0.01", tc)
	}
}

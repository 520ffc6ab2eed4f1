package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/synth"
)

// newTestServer starts the service on an httptest listener.
func newTestServer(t testing.TB, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// doJSON issues a request with an optional JSON body and decodes the JSON
// response into a generic map.
func doJSON(t testing.TB, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s %s: non-JSON response %d: %s", method, url, resp.StatusCode, raw)
		}
	}
	return resp.StatusCode, out
}

// errorCode digs the envelope code out of an error response.
func errorCode(t testing.TB, body map[string]any) string {
	t.Helper()
	env, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response has no error envelope: %v", body)
	}
	code, _ := env["code"].(string)
	if code == "" {
		t.Fatalf("error envelope has no code: %v", body)
	}
	if msg, _ := env["message"].(string); msg == "" {
		t.Fatalf("error envelope has no message: %v", body)
	}
	return code
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	status, body := doJSON(t, "GET", ts.URL+"/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
	if _, ok := body["datasets"]; !ok {
		t.Errorf("healthz misses dataset count: %v", body)
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	status, body := doJSON(t, "GET", ts.URL+"/v1/algorithms", nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	algs, ok := body["algorithms"].([]any)
	if !ok || len(algs) != 8 {
		t.Fatalf("algorithms = %v", body)
	}
	// The listing is generated from the engine registry: the default
	// algorithm leads and every card carries a machine-readable parameter
	// list.
	first, ok := algs[0].(map[string]any)
	if !ok || first["name"] != "mondrian" || first["default"] != true {
		t.Errorf("first algorithm = %v, want the default (mondrian)", algs[0])
	}
	for _, a := range algs {
		card := a.(map[string]any)
		params, ok := card["parameters"].([]any)
		if !ok || len(params) == 0 {
			t.Errorf("algorithm %v has no parameter metadata", card["name"])
		}
	}
}

func TestDatasetLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	// Generate.
	status, body := doJSON(t, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "h1", "family": "hospital", "rows": 300, "seed": 7})
	if status != http.StatusCreated {
		t.Fatalf("generate status = %d: %v", status, body)
	}
	if body["rows"].(float64) != 300 {
		t.Errorf("rows = %v", body["rows"])
	}

	// Duplicate name conflicts.
	status, body = doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"name": "h1"})
	if status != http.StatusConflict || errorCode(t, body) != "conflict" {
		t.Fatalf("duplicate = %d %v", status, body)
	}

	// Unknown family.
	status, body = doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"name": "x", "family": "bogus"})
	if status != http.StatusBadRequest || errorCode(t, body) != "bad_request" {
		t.Fatalf("bad family = %d %v", status, body)
	}

	// Missing name.
	status, body = doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"family": "census"})
	if status != http.StatusBadRequest {
		t.Fatalf("missing name = %d %v", status, body)
	}

	// Upload a CSV under the census schema.
	var csvBuf bytes.Buffer
	if err := synth.Census(120, 3).WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("PUT", ts.URL+"/v1/datasets/up1?family=census", bytes.NewReader(csvBuf.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}

	// Upload garbage.
	req, _ = http.NewRequest("PUT", ts.URL+"/v1/datasets/up2?family=census", strings.NewReader("not,a\nvalid csv"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "bad_csv") {
		t.Fatalf("garbage upload = %d %s", resp.StatusCode, raw)
	}

	// List and get.
	status, body = doJSON(t, "GET", ts.URL+"/v1/datasets", nil)
	if status != http.StatusOK || len(body["datasets"].([]any)) != 2 {
		t.Fatalf("list = %d %v", status, body)
	}
	status, body = doJSON(t, "GET", ts.URL+"/v1/datasets/h1", nil)
	if status != http.StatusOK || body["family"] != "hospital" {
		t.Fatalf("get = %d %v", status, body)
	}
	status, body = doJSON(t, "GET", ts.URL+"/v1/datasets/nope", nil)
	if status != http.StatusNotFound || errorCode(t, body) != "not_found" {
		t.Fatalf("get missing = %d %v", status, body)
	}

	// Delete.
	status, _ = doJSON(t, "DELETE", ts.URL+"/v1/datasets/up1", nil)
	if status != http.StatusNoContent {
		t.Fatalf("delete = %d", status)
	}
	status, body = doJSON(t, "DELETE", ts.URL+"/v1/datasets/up1", nil)
	if status != http.StatusNotFound {
		t.Fatalf("re-delete = %d %v", status, body)
	}
}

// TestAnonymizeAllAlgorithmsConcurrent fires every algorithm against the
// same stored dataset at once, several times each. Run under -race this
// checks that the registry and the shared columnar caches tolerate
// concurrent anonymize traffic.
func TestAnonymizeAllAlgorithmsConcurrent(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	status, body := doJSON(t, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "hosp", "family": "hospital", "rows": 500, "seed": 1})
	if status != http.StatusCreated {
		t.Fatalf("generate = %d %v", status, body)
	}

	requests := []map[string]any{
		{"dataset": "hosp", "algorithm": "mondrian", "k": 5},
		{"dataset": "hosp", "algorithm": "mondrian", "k": 5, "l": 2, "sensitive": "diagnosis"},
		{"dataset": "hosp", "algorithm": "datafly", "k": 5, "quasi_identifiers": []string{"age", "zip", "sex"}},
		{"dataset": "hosp", "algorithm": "incognito", "k": 5, "quasi_identifiers": []string{"age", "zip", "sex"}},
		{"dataset": "hosp", "algorithm": "samarati", "k": 5, "quasi_identifiers": []string{"age", "zip", "sex"}},
		{"dataset": "hosp", "algorithm": "topdown", "k": 5, "quasi_identifiers": []string{"age", "zip", "sex"}},
		{"dataset": "hosp", "algorithm": "kmember", "k": 5, "quasi_identifiers": []string{"age", "zip", "sex"}},
		{"dataset": "hosp", "algorithm": "anatomy", "l": 2, "sensitive": "diagnosis"},
	}
	// Raw HTTP in the goroutines: t.Fatal must not be called off the test
	// goroutine, so failures flow through the channel instead.
	call := func(req map[string]any) error {
		buf, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+"/v1/anonymize", "application/json", bytes.NewReader(buf))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%v: status %d: %s", req, resp.StatusCode, raw)
		}
		var body struct {
			Algorithm    string `json:"algorithm"`
			Rows         int    `json:"rows"`
			Measurements struct {
				K int `json:"k"`
			} `json:"measurements"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			return fmt.Errorf("%v: decode: %v", req, err)
		}
		alg := req["algorithm"].(string)
		if body.Algorithm != alg {
			return fmt.Errorf("%v: echoed algorithm %q", req, body.Algorithm)
		}
		if body.Rows == 0 {
			return fmt.Errorf("%v: empty release", req)
		}
		if want, ok := req["k"].(int); ok && alg != "anatomy" && body.Measurements.K < want {
			return fmt.Errorf("%v: measured k %d below requested %d", req, body.Measurements.K, want)
		}
		return nil
	}

	const perRequest = 3
	var wg sync.WaitGroup
	errc := make(chan error, len(requests)*perRequest)
	for _, req := range requests {
		for i := 0; i < perRequest; i++ {
			wg.Add(1)
			go func(req map[string]any) {
				defer wg.Done()
				if err := call(req); err != nil {
					errc <- err
				}
			}(req)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestAnonymizeBadInputs(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"name": "c", "family": "census", "rows": 200, "seed": 2})

	cases := []struct {
		name   string
		body   any
		status int
		code   string
	}{
		{"missing dataset", map[string]any{"algorithm": "mondrian"}, http.StatusBadRequest, "bad_request"},
		{"unknown dataset", map[string]any{"dataset": "nope"}, http.StatusNotFound, "not_found"},
		{"unknown algorithm", map[string]any{"dataset": "c", "algorithm": "bogus"}, http.StatusBadRequest, "bad_request"},
		{"negative k", map[string]any{"dataset": "c", "k": -3}, http.StatusBadRequest, "bad_config"},
		{"bad t", map[string]any{"dataset": "c", "k": 5, "t": 1.5}, http.StatusBadRequest, "bad_config"},
		{"bad diversity mode", map[string]any{"dataset": "c", "k": 5, "l": 2, "diversity_mode": "bogus", "sensitive": "salary"}, http.StatusBadRequest, "bad_config"},
		{"anatomy without l", map[string]any{"dataset": "c", "algorithm": "anatomy"}, http.StatusBadRequest, "bad_config"},
		{"unsatisfiable k", map[string]any{"dataset": "c", "k": 100000}, http.StatusUnprocessableEntity, "unsatisfiable"},
		{"unknown field", map[string]any{"dataset": "c", "kay": 5}, http.StatusBadRequest, "bad_json"},
	}
	for _, tc := range cases {
		status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize", tc.body)
		if status != tc.status {
			t.Errorf("%s: status = %d want %d (%v)", tc.name, status, tc.status, body)
			continue
		}
		if got := errorCode(t, body); got != tc.code {
			t.Errorf("%s: code = %q want %q", tc.name, got, tc.code)
		}
	}

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/anonymize", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d", resp.StatusCode)
	}

	// Wrong method gets the mux's 405.
	resp, err = http.Get(ts.URL + "/v1/anonymize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/anonymize status = %d", resp.StatusCode)
	}
}

// TestAnonymizeRecursiveBoundary checks that a table on the float boundary
// of recursive (c,l)-diversity is refused rather than published as
// violating its own policy: one class of 55 "a" and 25 "b" diagnoses has
// r1/tail = 2.2, which c = 2.2 does not strictly bound.
func TestAnonymizeRecursiveBoundary(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	var csv strings.Builder
	csv.WriteString("name,age,zip,sex,nationality,diagnosis\n")
	for i := 0; i < 80; i++ {
		diagnosis := "a"
		if i >= 55 {
			diagnosis = "b"
		}
		fmt.Fprintf(&csv, "p%d,30,13053,M,US,%s\n", i, diagnosis)
	}
	if status, body := sendCSV(t, "PUT", ts.URL+"/v1/datasets/b?family=hospital", []byte(csv.String())); status != http.StatusCreated {
		t.Fatalf("upload: %d %v", status, body)
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{"dataset": "b", "algorithm": "mondrian",
		"policy": map[string]any{"criteria": []map[string]any{
			{"type": "k-anonymity", "k": 2},
			{"type": "recursive-cl-diversity", "l": 2, "c": 2.2},
		}}})
	if status != http.StatusUnprocessableEntity || errorCode(t, body) != "unsatisfiable" {
		t.Errorf("boundary table: %d %v, want 422 unsatisfiable", status, body)
	}
}

// TestAnonymizeCancellation checks both cancellation paths: a client that
// goes away (499 envelope on the server side) and a request deadline that
// expires inside the Mondrian pool (504).
func TestAnonymizeCancellation(t *testing.T) {
	srv := New(Config{})
	handler := srv.Handler()

	// Seed a dataset large enough that the run cannot finish instantly.
	seed := httptest.NewRequest("POST", "/v1/datasets",
		strings.NewReader(`{"name":"big","family":"census","rows":4000,"seed":5}`))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, seed)
	if rec.Code != http.StatusCreated {
		t.Fatalf("seed dataset: %d %s", rec.Code, rec.Body)
	}

	// Pre-canceled request context: the pipeline must refuse to run and the
	// handler must map it to the 499 envelope.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/anonymize",
		strings.NewReader(`{"dataset":"big","k":5}`)).WithContext(ctx)
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled request status = %d, body %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"canceled"`) {
		t.Fatalf("canceled body = %s", rec.Body)
	}

	// Cancel mid-run: the context dies while the worker pool is splitting.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel2()
	}()
	req = httptest.NewRequest("POST", "/v1/anonymize",
		strings.NewReader(`{"dataset":"big","k":2}`)).WithContext(ctx2)
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest && rec.Code != http.StatusOK {
		t.Fatalf("mid-run cancel status = %d, body %s", rec.Code, rec.Body)
	}

	// timeout_ms tightens the deadline below the run time: 504. no_cache
	// keeps this a real run — if the mid-run cancel above completed instead,
	// its memoized release would satisfy any deadline instantly.
	req = httptest.NewRequest("POST", "/v1/anonymize",
		strings.NewReader(`{"dataset":"big","k":2,"timeout_ms":1,"no_cache":true}`))
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout status = %d, body %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"timeout"`) {
		t.Fatalf("timeout body = %s", rec.Body)
	}

	// The service stays healthy after shed work.
	req = httptest.NewRequest("GET", "/healthz", nil)
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after cancellations = %d", rec.Code)
	}
}

func TestReleaseLifecycleAndReports(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"name": "c", "family": "census", "rows": 400, "seed": 9})

	// Anonymize, store, inline rows.
	status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize",
		map[string]any{"dataset": "c", "algorithm": "mondrian", "k": 5, "store": true, "include_rows": true})
	if status != http.StatusOK {
		t.Fatalf("anonymize = %d %v", status, body)
	}
	id, _ := body["release_id"].(string)
	if id == "" {
		t.Fatalf("no release id: %v", body)
	}
	if len(body["data"].([]any)) != int(body["rows"].(float64)) {
		t.Errorf("inline rows mismatch")
	}

	// Release listing and detail.
	status, body = doJSON(t, "GET", ts.URL+"/v1/releases", nil)
	if status != http.StatusOK || len(body["releases"].([]any)) != 1 {
		t.Fatalf("releases = %d %v", status, body)
	}
	status, body = doJSON(t, "GET", ts.URL+"/v1/releases/"+id, nil)
	if status != http.StatusOK || body["algorithm"] != "mondrian" {
		t.Fatalf("release = %d %v", status, body)
	}
	if status, body = doJSON(t, "GET", ts.URL+"/v1/releases/r999", nil); status != http.StatusNotFound {
		t.Fatalf("missing release = %d %v", status, body)
	}

	// CSV download round-trips through the census released schema.
	resp, err := http.Get(ts.URL + "/v1/releases/" + id + "/data")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/csv") {
		t.Fatalf("data = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if lines := strings.Count(string(raw), "\n"); lines < 100 {
		t.Errorf("data rows = %d", lines)
	}

	// Risk report.
	status, body = doJSON(t, "GET", ts.URL+"/v1/releases/"+id+"/risk?threshold=0.5", nil)
	if status != http.StatusOK {
		t.Fatalf("risk = %d %v", status, body)
	}
	if max := body["prosecutor_max"].(float64); max > 1.0/5+1e-9 {
		t.Errorf("prosecutor_max = %v above 1/k", max)
	}
	if body["threshold"].(float64) != 0.5 {
		t.Errorf("threshold = %v", body["threshold"])
	}
	if _, ok := body["sensitive"].([]any); !ok {
		t.Errorf("risk misses sensitive section: %v", body)
	}
	status, body = doJSON(t, "GET", ts.URL+"/v1/releases/"+id+"/risk?threshold=7", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("bad threshold = %d %v", status, body)
	}

	// Utility report.
	status, body = doJSON(t, "GET", ts.URL+"/v1/releases/"+id+"/utility", nil)
	if status != http.StatusOK {
		t.Fatalf("utility = %d %v", status, body)
	}
	if ncp := body["ncp"].(float64); ncp < 0 || ncp > 1 {
		t.Errorf("ncp = %v", ncp)
	}
	if body["normalized_avg_class_size_k"].(float64) != 5 {
		t.Errorf("default k = %v", body["normalized_avg_class_size_k"])
	}
	// A policy release defaults to its policy's k, not the flat fallback.
	status, body = doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{"dataset": "c", "algorithm": "mondrian",
		"policy": map[string]any{"criteria": []any{map[string]any{"type": "k-anonymity", "k": 5}}}, "store": true})
	if status != http.StatusOK {
		t.Fatalf("policy anonymize = %d %v", status, body)
	}
	status, body = doJSON(t, "GET", ts.URL+"/v1/releases/"+body["release_id"].(string)+"/utility", nil)
	if status != http.StatusOK || body["normalized_avg_class_size_k"].(float64) != 5 {
		t.Errorf("policy release utility = %d, default k = %v", status, body["normalized_avg_class_size_k"])
	}

	// The original dataset is delete-protected while the release lives.
	if status, body = doJSON(t, "DELETE", ts.URL+"/v1/datasets/c", nil); status != http.StatusConflict {
		t.Fatalf("delete referenced dataset = %d %v", status, body)
	}

	// Anatomy releases expose QIT/ST downloads but no microdata reports.
	doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"name": "h", "family": "hospital", "rows": 300, "seed": 3})
	status, body = doJSON(t, "POST", ts.URL+"/v1/anonymize",
		map[string]any{"dataset": "h", "algorithm": "anatomy", "l": 2, "store": true})
	if status != http.StatusOK {
		t.Fatalf("anatomy anonymize = %d %v", status, body)
	}
	aid := body["release_id"].(string)
	for _, tbl := range []string{"qit", "st"} {
		resp, err := http.Get(ts.URL + "/v1/releases/" + aid + "/data?table=" + tbl)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("anatomy %s download = %d", tbl, resp.StatusCode)
		}
	}
	status, body = doJSON(t, "GET", ts.URL+"/v1/releases/"+aid+"/risk", nil)
	if status != http.StatusUnprocessableEntity || errorCode(t, body) != "unsupported" {
		t.Fatalf("anatomy risk = %d %v", status, body)
	}
	status, body = doJSON(t, "GET", ts.URL+"/v1/releases/"+aid+"/utility", nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("anatomy utility = %d %v", status, body)
	}
}

// TestBodyLimit checks the MaxBodyBytes gate on uploads.
func TestBodyLimit(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxBodyBytes: 64})
	req, _ := http.NewRequest("PUT", ts.URL+"/v1/datasets/big?family=census",
		bytes.NewReader(bytes.Repeat([]byte("x"), 4096)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(raw), "body_too_large") {
		t.Fatalf("oversized upload = %d %s", resp.StatusCode, raw)
	}
}

// TestGenerateRowsCap bounds synthetic generation per request.
func TestGenerateRowsCap(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	status, body := doJSON(t, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "huge", "family": "census", "rows": 2_000_000_000})
	if status != http.StatusBadRequest || errorCode(t, body) != "bad_request" {
		t.Fatalf("oversized generate = %d %v", status, body)
	}
}

// TestUploadReplaceProtection: PUT may replace a dataset, but not one a
// stored release still references.
func TestUploadReplaceProtection(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	var csvBuf bytes.Buffer
	if err := synth.Census(80, 1).WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	upload := func() int {
		req, _ := http.NewRequest("PUT", ts.URL+"/v1/datasets/d?family=census", bytes.NewReader(csvBuf.Bytes()))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := upload(); status != http.StatusCreated {
		t.Fatalf("first upload = %d", status)
	}
	// Replace while unreferenced is fine.
	if status := upload(); status != http.StatusCreated {
		t.Fatalf("replace = %d", status)
	}
	// A stored release pins the dataset.
	status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize",
		map[string]any{"dataset": "d", "k": 5, "store": true})
	if status != http.StatusOK {
		t.Fatalf("anonymize = %d %v", status, body)
	}
	if status := upload(); status != http.StatusConflict {
		t.Fatalf("replace of referenced dataset = %d, want 409", status)
	}
}

// BenchmarkServeAnonymize measures end-to-end requests per second of POST
// /v1/anonymize (Mondrian, k=10) over a stored 5k-row census table,
// including JSON encoding and HTTP transport. no_cache keeps every
// iteration a full computation — BenchmarkCacheHit measures the memoized
// path over the same request.
func BenchmarkServeAnonymize(b *testing.B) {
	ts, _ := newTestServer(b, Config{})
	status, body := doJSON(b, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "bench", "family": "census", "rows": 5000, "seed": 42})
	if status != http.StatusCreated {
		b.Fatalf("seed dataset = %d %v", status, body)
	}
	payload := map[string]any{"dataset": "bench", "algorithm": "mondrian", "k": 10, "no_cache": true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, body := doJSON(b, "POST", ts.URL+"/v1/anonymize", payload)
		if status != http.StatusOK {
			b.Fatalf("anonymize = %d %v", status, body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeAnonymizeMix replays the five policies of loadbench's
// anon-cold workload in rotation through the service: no_cache Mondrian
// requests over the stored 5k-row census table of BenchmarkServeAnonymize,
// at k=5, 10 and 25, then k=10 with distinct 2-diversity and k=10 with
// 0.3-closeness. One op is one request, so ns/op is the mix's mean.
func BenchmarkServeAnonymizeMix(b *testing.B) {
	ts, _ := newTestServer(b, Config{})
	status, body := doJSON(b, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "bench", "family": "census", "rows": 5000, "seed": 42})
	if status != http.StatusCreated {
		b.Fatalf("seed dataset = %d %v", status, body)
	}
	k := func(k int) map[string]any { return map[string]any{"type": "k-anonymity", "k": k} }
	policies := [][]map[string]any{
		{k(5)}, {k(10)}, {k(25)},
		{k(10), {"type": "distinct-l-diversity", "l": 2}},
		{k(10), {"type": "t-closeness", "t": 0.3}},
	}
	payloads := make([]map[string]any, len(policies))
	for i, criteria := range policies {
		payloads[i] = map[string]any{"dataset": "bench", "algorithm": "mondrian", "no_cache": true,
			"policy": map[string]any{"version": 1, "criteria": criteria}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, body := doJSON(b, "POST", ts.URL+"/v1/anonymize", payloads[i%len(payloads)])
		if status != http.StatusOK {
			b.Fatalf("anonymize = %d %v", status, body)
		}
	}
}

// TestRegistryCaps exercises the occupancy limits directly on the registry.
func TestRegistryCaps(t *testing.T) {
	reg := newRegistry(0, 0, 0)
	tbl := synth.Census(1, 1)
	for i := 0; i < DefaultMaxDatasets; i++ {
		ds := &storedDataset{name: fmt.Sprintf("d%d", i), table: tbl}
		if err := reg.putDataset(ds, false, nil, 0); err != nil {
			t.Fatalf("dataset %d: %v", i, err)
		}
	}
	if err := reg.putDataset(&storedDataset{name: "overflow", table: tbl}, false, nil, 0); !errors.Is(err, errRegistryFull) {
		t.Fatalf("dataset overflow error = %v, want errRegistryFull", err)
	}
	// Replacing an existing name is not growth and stays allowed.
	if err := reg.putDataset(&storedDataset{name: "d0", table: tbl}, true, nil, 0); err != nil {
		t.Fatalf("replace at cap: %v", err)
	}
	for i := 0; i < DefaultMaxReleases; i++ {
		if _, err := reg.putRelease(&storedRelease{dataset: "d0", release: &core.Release{}}); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	if _, err := reg.putRelease(&storedRelease{dataset: "d0", release: &core.Release{}}); !errors.Is(err, errRegistryFull) {
		t.Fatalf("release overflow error = %v, want errRegistryFull", err)
	}
	// Deleting a release frees a slot.
	if err := reg.deleteRelease("r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.putRelease(&storedRelease{dataset: "d0", release: &core.Release{}}); err != nil {
		t.Fatalf("store after delete: %v", err)
	}
}

// TestDeleteReleaseUnpinsDataset checks the DELETE /v1/releases/{id} flow.
func TestDeleteReleaseUnpinsDataset(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"name": "d", "family": "census", "rows": 150})
	status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize",
		map[string]any{"dataset": "d", "k": 5, "store": true})
	if status != http.StatusOK {
		t.Fatalf("anonymize = %d %v", status, body)
	}
	id := body["release_id"].(string)
	// The release pins the dataset...
	if status, _ = doJSON(t, "DELETE", ts.URL+"/v1/datasets/d", nil); status != http.StatusConflict {
		t.Fatalf("delete pinned dataset = %d", status)
	}
	// ...until it is deleted.
	if status, _ = doJSON(t, "DELETE", ts.URL+"/v1/releases/"+id, nil); status != http.StatusNoContent {
		t.Fatalf("delete release = %d", status)
	}
	if status, _ = doJSON(t, "DELETE", ts.URL+"/v1/releases/"+id, nil); status != http.StatusNotFound {
		t.Fatalf("re-delete release = %d", status)
	}
	if status, _ = doJSON(t, "DELETE", ts.URL+"/v1/datasets/d", nil); status != http.StatusNoContent {
		t.Fatalf("delete unpinned dataset = %d", status)
	}
}

// TestGenerateSeedZero: an explicit seed of 0 is honored, not coerced to the
// default.
func TestGenerateSeedZero(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"name": "z", "family": "census", "rows": 50, "seed": 0})
	doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"name": "def", "family": "census", "rows": 50})
	fetch := func(name string) string {
		status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize",
			map[string]any{"dataset": name, "k": 1, "include_rows": true})
		if status != http.StatusOK {
			t.Fatalf("anonymize %s = %d %v", name, status, body)
		}
		raw, _ := json.Marshal(body["data"])
		return string(raw)
	}
	if fetch("z") == fetch("def") {
		t.Fatal("seed 0 produced the same table as the default seed 42")
	}
}

// TestMicrodataTableParamRejected: ?table= is an Anatomy-only selector.
func TestMicrodataTableParamRejected(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"name": "d", "family": "census", "rows": 120})
	status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize",
		map[string]any{"dataset": "d", "k": 5, "store": true})
	if status != http.StatusOK {
		t.Fatalf("anonymize = %d %v", status, body)
	}
	id := body["release_id"].(string)
	for _, q := range []string{"qit", "st", "bogus"} {
		resp, err := http.Get(ts.URL + "/v1/releases/" + id + "/data?table=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("microdata data?table=%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

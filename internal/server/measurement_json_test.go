package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestOrderedSensitiveCacheKey: ordered_sensitive without t changes only the
// measured max_emd, not the policy, so it must still key the result cache —
// otherwise the ordered request is served the unordered run's measurements.
func TestOrderedSensitiveCacheKey(t *testing.T) {
	ts, srv := newTestServer(t, Config{Workers: 1})
	withCensus(t, srv, 400)
	body := map[string]any{"dataset": "census", "k": 5, "sensitive": "occupation"}
	maxEMD := func(extra ...any) float64 {
		t.Helper()
		req := map[string]any{}
		for k, v := range body {
			req[k] = v
		}
		for i := 0; i < len(extra); i += 2 {
			req[extra[i].(string)] = extra[i+1]
		}
		status, resp := doJSON(t, "POST", ts.URL+"/v1/anonymize", req)
		if status != http.StatusOK {
			t.Fatalf("anonymize %v: %d %v", req, status, resp)
		}
		return resp["measurements"].(map[string]any)["max_emd"].(float64)
	}
	unordered := maxEMD()
	ordered := maxEMD("ordered_sensitive", true)
	if ordered == unordered {
		t.Fatalf("ordered and unordered requests both measured max_emd %v: the ordered one was served from the cache", ordered)
	}
	if fresh := maxEMD("ordered_sensitive", true, "no_cache", true); ordered != fresh {
		t.Errorf("cached ordered max_emd %v, fresh run %v", ordered, fresh)
	}
	if again := maxEMD(); again != unordered {
		t.Errorf("unordered repeat max_emd %v, first run %v", again, unordered)
	}
}

// TestNonFiniteMeasurementIsNull: recursive (c,l)-diversity measures +Inf on
// a class with fewer than l sensitive values; the response must still be a
// complete JSON body, with the measurement encoded as null.
func TestNonFiniteMeasurementIsNull(t *testing.T) {
	ts, srv := newTestServer(t, Config{Workers: 1})
	withCensus(t, srv, 400)
	status, resp := doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{
		"dataset": "census", "k": 5, "l": 2, "diversity_mode": "recursive", "sensitive": "occupation"})
	if status != http.StatusOK {
		t.Fatalf("anonymize: %d %v", status, resp)
	}
	m, ok := resp["measurements"].(map[string]any)
	if !ok {
		t.Fatalf("response has no measurements: %v", resp)
	}
	rec, ok := m["criteria"].(map[string]any)["recursive-cl-diversity"].(map[string]any)
	if !ok {
		t.Fatalf("no recursive-cl-diversity measurement: %v", m)
	}
	if v, present := rec["measured"]; !present || v != nil {
		t.Errorf("recursive-cl-diversity measured = %v (present %v), want null", v, present)
	}
	if rec["satisfied"] != false {
		t.Errorf("recursive-cl-diversity satisfied = %v, want false", rec["satisfied"])
	}
}

// TestWriteJSONMarshalFailure: a value the encoder rejects yields the 500
// error envelope instead of a success status with an empty body.
func TestWriteJSONMarshalFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("undecodable body %q: %v", rec.Body.Bytes(), err)
	}
	if code := errorCode(t, body); code != "internal" {
		t.Errorf("error code %q, want internal", code)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ppdp/ppdp/internal/jobs"
	"github.com/ppdp/ppdp/internal/synth"
)

// FuzzHandlerBodies POSTs arbitrary bytes to every JSON-body create route of
// a fresh server holding a 50-row census dataset ("census"), with a 200 ms
// request deadline. Every answer must be a 2xx, or a 4xx or 504 carrying the
// {"error":{"code","message"}} envelope; a panic or a 500 fails. A job the
// body submitted must settle without an internal error either.
func FuzzHandlerBodies(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"census","algorithm":"mondrian","k":5,"store":true}`,
		`{"dataset":"census","algorithm":"mondrian","k":5,"store":true,"include_rows":true}`,
		`{"dataset":"census","algorithm":"anatomy","l":2,"store":true}`,
		`{"dataset":"census","algorithm":"datafly","k":5}`,
		`{"dataset":"census","algorithm":"mondrian","no_cache":true,"policy":{"version":1,"criteria":[{"type":"k-anonymity","k":10},{"type":"t-closeness","t":0.3}]}}`,
		`{"dataset":"census","algorithm":"mondrian","policy":{"criteria":[{"type":"k-anonymity","k":4},{"type":"distinct-l-diversity","l":2}]}}`,
		`{"dataset":"census","policy_ref":"strict"}`,
		`{"name":"s","dataset":"census","algorithm":"mondrian","k":5}`,
		`{"name":"strict","policy":{"criteria":[{"type":"k-anonymity","k":4},{"type":"distinct-l-diversity","l":2}]}}`,
		`{"dataset":"census","k":0}`,
		`{"dataset":"census","k":-1,"timeout_ms":-5}`,
		`{"dataset":"nope"}`,
		`{"bogus":1}`,
		`null`,
		`[]`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(Config{Workers: 1, JobWorkers: 1, RequestTimeout: 200 * time.Millisecond})
		defer srv.Close()
		if err := srv.AddDataset("census", "census", synth.Census(50, 1), synth.CensusHierarchies()); err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		for _, route := range []string{"/v1/anonymize", "/v1/jobs", "/v1/specs", "/v1/policies"} {
			req := httptest.NewRequest("POST", route, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			status := rec.Code
			if status >= 200 && status < 300 {
				if status == http.StatusAccepted && route == "/v1/jobs" {
					checkFuzzJob(t, srv, rec.Header().Get("Location"), body)
				}
				continue
			}
			if status >= 500 && status != http.StatusGatewayTimeout {
				t.Fatalf("POST %s %q: %d %s", route, body, status, rec.Body.Bytes())
			}
			var env struct {
				Error *apiError `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil ||
				env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("POST %s %q: %d without an error envelope: %s", route, body, status, rec.Body.Bytes())
			}
		}
	})
}

// checkFuzzJob waits for the job at location to settle and fails when it
// ended in an error the service classifies as its own fault.
func checkFuzzJob(t *testing.T, srv *Server, location string, body []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := srv.jobs.Wait(ctx, strings.TrimPrefix(location, "/v1/jobs/"))
	if err != nil {
		t.Fatalf("job %s for %q did not settle: %v", location, body, err)
	}
	if final.State != jobs.Failed {
		return
	}
	if status, _ := classifyAnonymizeError(final.Err); status >= 500 && status != http.StatusGatewayTimeout {
		t.Fatalf("job %s for %q failed with %d: %v", location, body, status, final.Err)
	}
}

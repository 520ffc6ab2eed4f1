package server

import (
	"net/http"
	"testing"
)

// envelopeCase is one request whose error envelope is pinned exactly.
type envelopeCase struct {
	name    string
	do      func() (int, map[string]any)
	status  int
	code    string
	message string
}

// checkEnvelopes runs each case and compares status, code and message.
func checkEnvelopes(t *testing.T, cases []envelopeCase) {
	t.Helper()
	for _, c := range cases {
		status, body := c.do()
		env, _ := body["error"].(map[string]any)
		code, _ := env["code"].(string)
		msg, _ := env["message"].(string)
		if status != c.status || code != c.code || msg != c.message {
			t.Errorf("%s:\n got %d %q %q\nwant %d %q %q", c.name, status, code, msg, c.status, c.code, c.message)
		}
	}
}

// TestRegistryErrorEnvelopes pins the status, code and message of every
// registry refusal, per resource kind: a missing name on read and delete, a
// duplicate create, the occupancy caps, the pins between kinds (specs
// watching datasets and owning releases) and the tenant quota.
func TestRegistryErrorEnvelopes(t *testing.T) {
	req := func(ts string, method, path string, body any) func() (int, map[string]any) {
		return func() (int, map[string]any) { return doJSON(t, method, ts+path, body) }
	}

	t.Run("missing, duplicate and pinned", func(t *testing.T) {
		ts, _ := newTestServer(t, Config{Workers: 1})
		u := ts.URL
		seedDataset(t, ts, "d", "census", 200)
		seedDataset(t, ts, "w", "census", 200)
		status, body := doJSON(t, "POST", u+"/v1/anonymize",
			map[string]any{"dataset": "d", "algorithm": "mondrian", "k": 5, "store": true})
		if status != http.StatusOK || body["release_id"] != "r1" {
			t.Fatalf("stored anonymize: %d %v", status, body)
		}
		if status, body := doJSON(t, "POST", u+"/v1/policies",
			map[string]any{"name": "p", "policy": policyDoc(5)}); status != http.StatusCreated {
			t.Fatalf("create policy: %d %v", status, body)
		}
		if status, body := doJSON(t, "POST", u+"/v1/specs",
			map[string]any{"name": "s", "dataset": "w", "algorithm": "mondrian", "k": 5}); status != http.StatusCreated {
			t.Fatalf("create spec: %d %v", status, body)
		}
		if got := pollSpec(t, ts, "s", specSettled(1))["release_id"]; got != "r2" {
			t.Fatalf("spec release = %v, want r2", got)
		}
		csv := censusChunks(t, 50)[0]

		checkEnvelopes(t, []envelopeCase{
			{"GET missing dataset", req(u, "GET", "/v1/datasets/nope", nil),
				404, "not_found", `dataset not found: "nope"`},
			{"DELETE missing dataset", req(u, "DELETE", "/v1/datasets/nope", nil),
				404, "not_found", `dataset not found: "nope"`},
			{"append to missing dataset", func() (int, map[string]any) {
				return sendCSV(t, "POST", u+"/v1/datasets/nope/rows", csv)
			}, 404, "not_found", `dataset not found: "nope"`},
			{"anonymize missing dataset", req(u, "POST", "/v1/anonymize", map[string]any{"dataset": "nope"}),
				404, "not_found", `dataset not found: "nope"`},
			{"GET missing release", req(u, "GET", "/v1/releases/r99", nil),
				404, "not_found", `release not found: "r99"`},
			{"GET missing release data", req(u, "GET", "/v1/releases/r99/data", nil),
				404, "not_found", `release not found: "r99"`},
			{"GET missing release risk", req(u, "GET", "/v1/releases/r99/risk", nil),
				404, "not_found", `release not found: "r99"`},
			{"GET missing release utility", req(u, "GET", "/v1/releases/r99/utility", nil),
				404, "not_found", `release not found: "r99"`},
			{"DELETE missing release", req(u, "DELETE", "/v1/releases/r99", nil),
				404, "not_found", `release not found: "r99"`},
			{"GET missing policy", req(u, "GET", "/v1/policies/nope", nil),
				404, "not_found", `policy not found: "nope"`},
			{"DELETE missing policy", req(u, "DELETE", "/v1/policies/nope", nil),
				404, "not_found", `policy not found: "nope"`},
			{"anonymize missing policy_ref", req(u, "POST", "/v1/anonymize", map[string]any{"dataset": "d", "policy_ref": "nope"}),
				404, "not_found", `policy not found: "nope"`},
			{"GET missing spec", req(u, "GET", "/v1/specs/nope", nil),
				404, "not_found", `spec not found: "nope"`},
			{"DELETE missing spec", req(u, "DELETE", "/v1/specs/nope", nil),
				404, "not_found", `spec not found: "nope"`},
			{"duplicate dataset", req(u, "POST", "/v1/datasets", map[string]any{"name": "d", "rows": 50}),
				409, "conflict", `dataset already exists: "d"`},
			{"duplicate policy", req(u, "POST", "/v1/policies", map[string]any{"name": "p", "policy": policyDoc(3)}),
				409, "conflict", `policy already exists: "p"`},
			{"duplicate spec", req(u, "POST", "/v1/specs", map[string]any{"name": "s", "dataset": "d", "algorithm": "mondrian", "k": 5}),
				409, "conflict", `spec already exists: "s"`},
			{"DELETE dataset watched by a spec", req(u, "DELETE", "/v1/datasets/w", nil),
				409, "spec_pinned", `dataset is watched by release specs: "w" (spec s)`},
			{"DELETE spec-owned release", req(u, "DELETE", "/v1/releases/r2", nil),
				409, "spec_pinned", `release is managed by a spec: "r2" (spec s); delete the spec to remove its release`},
		})
	})

	t.Run("caps", func(t *testing.T) {
		ts, _ := newTestServer(t, Config{Workers: 1, MaxDatasets: 1, MaxReleases: 1, MaxPolicies: 1})
		u := ts.URL
		seedDataset(t, ts, "d", "census", 200)
		anonymize := req(u, "POST", "/v1/anonymize",
			map[string]any{"dataset": "d", "algorithm": "mondrian", "k": 5, "store": true})
		if status, body := anonymize(); status != http.StatusOK {
			t.Fatalf("stored anonymize: %d %v", status, body)
		}
		if status, body := doJSON(t, "POST", u+"/v1/policies",
			map[string]any{"name": "p", "policy": policyDoc(5)}); status != http.StatusCreated {
			t.Fatalf("create policy: %d %v", status, body)
		}
		csv := censusChunks(t, 50)[0]

		checkEnvelopes(t, []envelopeCase{
			{"dataset cap (generate)", req(u, "POST", "/v1/datasets", map[string]any{"name": "e", "rows": 50}),
				507, "registry_full", "registry is full: 1 datasets stored (limit 1)"},
			{"dataset cap (upload)", func() (int, map[string]any) {
				return sendCSV(t, "PUT", u+"/v1/datasets/e", csv)
			}, 507, "registry_full", "registry is full: 1 datasets stored (limit 1)"},
			{"release cap", anonymize,
				507, "registry_full", "registry is full: 1 releases stored (limit 1)"},
			{"policy cap", req(u, "POST", "/v1/policies", map[string]any{"name": "q", "policy": policyDoc(5)}),
				507, "registry_full", "registry is full: 1 policies stored (limit 1)"},
		})
	})

	t.Run("tenant quota", func(t *testing.T) {
		ts, _ := newTestServer(t, Config{APIKeys: testKeys(), TenantMaxDatasets: 1})
		gen := func(name string) func() (int, map[string]any) {
			return func() (int, map[string]any) {
				status, _, body := doAuthJSON(t, "POST", ts.URL+"/v1/datasets", "k-acme-1",
					map[string]any{"name": name, "family": "census", "rows": 50})
				return status, body
			}
		}
		if status, body := gen("a")(); status != http.StatusCreated {
			t.Fatalf("first dataset: %d %v", status, body)
		}
		checkEnvelopes(t, []envelopeCase{
			{"tenant quota", gen("b"),
				429, "tenant_quota", `tenant dataset quota exceeded: tenant "acme" holds 1 datasets (limit 1)`},
		})
	})
}

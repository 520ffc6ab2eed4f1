package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// This file covers the tenant-aware admission layer over real HTTP: API-key
// authentication, the per-tenant token-bucket rate limiter, per-tenant
// dataset/job quotas, and the round-robin queue positions the fair scheduler
// reports. Timing is controlled with the injectable clock (Config.Now) and
// the gated runner hook (Server.runGate), so no test sleeps.

// testKeys is the key→tenant map used by the admission tests: two keys for
// acme (key rotation) and one for globex.
func testKeys() map[string]string {
	return map[string]string{"k-acme-1": "acme", "k-acme-2": "acme", "k-globex": "globex"}
}

// newJSONRequest builds a request with an optional JSON body.
func newJSONRequest(t testing.TB, method, url string, body any) *http.Request {
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
	return req
}

// doAuthJSON is doJSON with an X-API-Key header and access to the response
// headers.
func doAuthJSON(t testing.TB, method, url, key string, body any) (int, http.Header, map[string]any) {
	t.Helper()
	req := newJSONRequest(t, method, url, body)
	if key != "" {
		req.Header.Set("X-API-Key", key)
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
	return resp.StatusCode, resp.Header, out
}

// apiKeysValid and apiKeysInvalid are TestParseAPIKeys's inputs; they also
// seed FuzzParseAPIKeys.
var (
	apiKeysValid   = "# ops keys\n\n  k-acme-1   acme\nk-acme-2 acme\nk-globex globex\n"
	apiKeysInvalid = map[string]string{
		"duplicate key":  "k1 acme\nk1 globex\n",
		"malformed line": "k1 acme extra\n",
		"empty file":     "# nothing but comments\n",
	}
)

func TestParseAPIKeys(t *testing.T) {
	t.Run("valid", func(t *testing.T) {
		keys, err := ParseAPIKeys(strings.NewReader(apiKeysValid))
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 3 || keys["k-acme-1"] != "acme" || keys["k-globex"] != "globex" {
			t.Errorf("keys = %v", keys)
		}
	})
	for name, input := range apiKeysInvalid {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseAPIKeys(strings.NewReader(input)); err == nil {
				t.Errorf("ParseAPIKeys(%q) succeeded, want error", input)
			}
		})
	}
}

func TestAuthenticationGatesEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, Config{APIKeys: testKeys()})

	status, _, body := doAuthJSON(t, "GET", ts.URL+"/v1/algorithms", "", nil)
	if status != http.StatusUnauthorized || errorCode(t, body) != "unauthorized" {
		t.Errorf("no key: %d %v, want 401 unauthorized", status, body)
	}
	status, _, body = doAuthJSON(t, "GET", ts.URL+"/v1/algorithms", "k-wrong", nil)
	if status != http.StatusUnauthorized || errorCode(t, body) != "unauthorized" {
		t.Errorf("unknown key: %d %v, want 401 unauthorized", status, body)
	}
	if status, _, _ := doAuthJSON(t, "GET", ts.URL+"/v1/algorithms", "k-acme-1", nil); status != http.StatusOK {
		t.Errorf("X-API-Key: %d, want 200", status)
	}

	// The Authorization: Bearer form resolves the same tenant.
	req := newJSONRequest(t, "GET", ts.URL+"/v1/algorithms", nil)
	req.Header.Set("Authorization", "Bearer k-globex")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("Bearer key: %d, want 200", resp.StatusCode)
	}

	// Liveness and metrics stay reachable without a key.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s without key: %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestTenantLimiter drives the token bucket directly with a fake clock.
func TestTenantLimiter(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newTenantLimiter(2, 2, func() time.Time { return now })

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("acme"); !ok {
			t.Fatalf("burst request %d denied", i+1)
		}
	}
	ok, wait := l.allow("acme")
	if ok {
		t.Fatal("third request within the burst allowed")
	}
	if wait <= 0 || wait > 500*time.Millisecond {
		t.Errorf("wait = %v, want (0, 500ms] at 2 req/s", wait)
	}
	// Buckets are per tenant: globex is untouched by acme's exhaustion.
	if ok, _ := l.allow("globex"); !ok {
		t.Error("other tenant denied while acme is throttled")
	}
	// Half a second refills one token at 2 req/s — exactly one more request.
	now = now.Add(500 * time.Millisecond)
	if ok, _ := l.allow("acme"); !ok {
		t.Error("request after refill denied")
	}
	if ok, _ := l.allow("acme"); ok {
		t.Error("second request after a one-token refill allowed")
	}
}

func TestRateLimitOverHTTP(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(2000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	ts, _ := newTestServer(t, Config{
		APIKeys: testKeys(), TenantRate: 1, TenantBurst: 1, Now: clock,
	})

	if status, _, _ := doAuthJSON(t, "GET", ts.URL+"/v1/algorithms", "k-acme-1", nil); status != http.StatusOK {
		t.Fatalf("first request: %d, want 200", status)
	}
	status, header, body := doAuthJSON(t, "GET", ts.URL+"/v1/algorithms", "k-acme-2", nil)
	if status != http.StatusTooManyRequests || errorCode(t, body) != "rate_limited" {
		t.Fatalf("second request: %d %v, want 429 rate_limited", status, body)
	}
	if header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	// The bucket is per tenant, not per key or global.
	if status, _, _ := doAuthJSON(t, "GET", ts.URL+"/v1/algorithms", "k-globex", nil); status != http.StatusOK {
		t.Errorf("other tenant while acme throttled: %d, want 200", status)
	}
	// Exempt paths are never throttled, even for the exhausted tenant.
	if status, _, _ := doAuthJSON(t, "GET", ts.URL+"/healthz", "k-acme-1", nil); status != http.StatusOK {
		t.Errorf("healthz while throttled: %d, want 200", status)
	}
	advance(time.Second)
	if status, _, _ := doAuthJSON(t, "GET", ts.URL+"/v1/algorithms", "k-acme-1", nil); status != http.StatusOK {
		t.Errorf("request after refill: %d, want 200", status)
	}
}

func TestTenantDatasetQuota(t *testing.T) {
	ts, _ := newTestServer(t, Config{APIKeys: testKeys(), TenantMaxDatasets: 1})
	gen := func(key, name string) (int, map[string]any) {
		status, _, body := doAuthJSON(t, "POST", ts.URL+"/v1/datasets", key,
			map[string]any{"name": name, "family": "census", "rows": 50})
		return status, body
	}

	if status, body := gen("k-acme-1", "acme-a"); status != http.StatusCreated {
		t.Fatalf("first dataset: %d %v", status, body)
	}
	status, body := gen("k-acme-2", "acme-b")
	if status != http.StatusTooManyRequests || errorCode(t, body) != "tenant_quota" {
		t.Fatalf("over-quota dataset: %d %v, want 429 tenant_quota", status, body)
	}
	// The quota is per tenant: globex still has its slot.
	if status, body := gen("k-globex", "globex-a"); status != http.StatusCreated {
		t.Errorf("other tenant's dataset: %d %v", status, body)
	}
	// Freeing the slot restores the quota.
	if status, _, body := doAuthJSON(t, "DELETE", ts.URL+"/v1/datasets/acme-a", "k-acme-1", nil); status != http.StatusNoContent {
		t.Fatalf("delete dataset: %d %v", status, body)
	}
	if status, body := gen("k-acme-1", "acme-c"); status != http.StatusCreated {
		t.Errorf("dataset after delete: %d %v", status, body)
	}
}

// TestPutDatasetTenantQuotaReplace exercises the registry's quota accounting
// directly: replacing one's own dataset must not consume a second slot.
func TestPutDatasetTenantQuotaReplace(t *testing.T) {
	r := newRegistry(0, 0, 0)
	if err := r.putDataset(&storedDataset{name: "a", datasetMeta: datasetMeta{Tenant: "acme"}}, false, nil, 1); err != nil {
		t.Fatalf("first dataset: %v", err)
	}
	if err := r.putDataset(&storedDataset{name: "b", datasetMeta: datasetMeta{Tenant: "acme"}}, false, nil, 1); !errors.Is(err, errTenantQuota) {
		t.Fatalf("over-quota dataset: %v, want errTenantQuota", err)
	}
	if err := r.putDataset(&storedDataset{name: "a", datasetMeta: datasetMeta{Tenant: "acme"}}, true, nil, 1); err != nil {
		t.Errorf("replacing own dataset at quota: %v, want nil", err)
	}
	if err := r.putDataset(&storedDataset{name: "b", datasetMeta: datasetMeta{Tenant: "globex"}}, false, nil, 1); err != nil {
		t.Errorf("other tenant's dataset: %v, want nil", err)
	}
}

// TestTenantJobQuotaAndFairQueueOverHTTP holds the single worker at the run
// gate and checks (a) the per-tenant job quota answers 429 tenant_quota while
// other tenants submit freely, and (b) the queue positions the API reports
// follow round-robin dispatch order, not submission order.
func TestTenantJobQuotaAndFairQueueOverHTTP(t *testing.T) {
	ts, srv := newTestServer(t, Config{
		APIKeys: testKeys(), JobWorkers: 1, QueueDepth: 8, TenantMaxJobs: 3,
	})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	defer close(release)
	srv.runGate = func(ctx context.Context) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	seedAuthDataset := func(key, name string) {
		status, _, body := doAuthJSON(t, "POST", ts.URL+"/v1/datasets", key,
			map[string]any{"name": name, "family": "census", "rows": 100, "seed": 9})
		if status != http.StatusCreated {
			t.Fatalf("seed %s: %d %v", name, status, body)
		}
	}
	seedAuthDataset("k-acme-1", "census")
	submit := func(key string) (int, map[string]any) {
		status, _, body := doAuthJSON(t, "POST", ts.URL+"/v1/jobs", key,
			map[string]any{"dataset": "census", "k": 5})
		return status, body
	}

	// acme: one running (held at the gate) plus two queued = at its cap of 3.
	status, body := submit("k-acme-1")
	if status != http.StatusAccepted {
		t.Fatalf("acme job 1: %d %v", status, body)
	}
	<-entered
	var acmeQueued []string
	for i := 0; i < 2; i++ {
		status, body := submit("k-acme-1")
		if status != http.StatusAccepted {
			t.Fatalf("acme job %d: %d %v", i+2, status, body)
		}
		acmeQueued = append(acmeQueued, body["id"].(string))
	}
	status, body = submit("k-acme-2")
	if status != http.StatusTooManyRequests || errorCode(t, body) != "tenant_quota" {
		t.Fatalf("acme over quota: %d %v, want 429 tenant_quota", status, body)
	}

	// globex is not affected by acme's quota, and round-robin dispatch puts
	// its first job ahead of acme's second queued job: expected drain order
	// is acme[0], globex, acme[1].
	status, body = submit("k-globex")
	if status != http.StatusAccepted {
		t.Fatalf("globex job: %d %v", status, body)
	}
	globexID := body["id"].(string)
	wantPos := map[string]float64{acmeQueued[0]: 1, globexID: 2, acmeQueued[1]: 3}
	for id, want := range wantPos {
		_, _, info := doAuthJSON(t, "GET", ts.URL+"/v1/jobs/"+id, "k-globex", nil)
		if got, _ := info["queue_position"].(float64); got != want {
			t.Errorf("job %s queue_position = %v, want %v (tenant=%v)", id, got, want, info["tenant"])
		}
	}
	// The job detail carries the owning tenant.
	_, _, info := doAuthJSON(t, "GET", ts.URL+"/v1/jobs/"+globexID, "k-globex", nil)
	if info["tenant"] != "globex" {
		t.Errorf("job tenant = %v, want globex", info["tenant"])
	}
}

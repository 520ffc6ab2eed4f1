package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/ppdp/ppdp/internal/store"
)

// TestFlatExplicitZeroK checks that an explicit flat "k": 0 is a
// configuration error on every edge that takes flat parameters, with the
// CLI's -k 0 text, while an omitted k still takes the declared default.
func TestFlatExplicitZeroK(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	seedDataset(t, ts, "c", "census", 200)
	for _, path := range []string{"/v1/anonymize", "/v1/jobs", "/v1/specs"} {
		req := map[string]any{"dataset": "c", "k": 0}
		if path == "/v1/specs" {
			req["name"] = "zero"
		}
		status, body := doJSON(t, "POST", ts.URL+path, req)
		if status != http.StatusBadRequest || errorCode(t, body) != "bad_config" {
			t.Errorf("%s with k=0: %d %v, want 400 bad_config", path, status, body)
			continue
		}
		if msg := body["error"].(map[string]any)["message"].(string); !strings.Contains(msg, "K must be at least 1 (got 0)") {
			t.Errorf("%s with k=0: message %q", path, msg)
		}
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{"dataset": "c"})
	if status != http.StatusOK {
		t.Fatalf("omitted k: %d %v", status, body)
	}
	if got := fmt.Sprint(body["policy"]); !strings.Contains(got, "k:10") {
		t.Errorf("omitted k: policy %s, want the default k=10", got)
	}
	// "k": 0 next to a policy is a flat parameter too.
	status, body = doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{"dataset": "c", "k": 0,
		"policy": map[string]any{"criteria": []map[string]any{{"type": "k-anonymity", "k": 5}}}})
	if status != http.StatusBadRequest || errorCode(t, body) != "bad_request" {
		t.Errorf("k=0 with a policy: %d %v, want 400 bad_request", status, body)
	}
}

// TestRecoverLegacyZeroK recovers a spec record journaled before an
// explicit flat k was told apart from an omitted one: its params say
// "k": 0 for an omitted k, so it must reconcile under the default k=10.
func TestRecoverLegacyZeroK(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Workers: 1}
	ts, srv := bootPersistent(t, cfg)
	seedDataset(t, ts, "pop", "census", 300)
	ts.Close()
	srv.Close()

	st, err := store.Open(cfg.DataDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta := `{"dataset":"pop","algorithm":"mondrian",` +
		`"policy":{"version":1,"criteria":[{"type":"k-anonymity","k":10}]},` +
		`"params":{"dataset":"pop","algorithm":"mondrian","policy":null,"policy_ref":"",` +
		`"k":0,"l":0,"t":0,"c":0,"diversity_mode":"","sensitive":"","quasi_identifiers":null,` +
		`"max_suppression":null,"strict_mondrian":false,"ordered_sensitive":false,` +
		`"no_cache":false,"store":false,"include_rows":false,"timeout_ms":0},` +
		`"reconciled_generation":0,"created_unix_ns":1}`
	if err := st.Apply(store.Op{Op: store.OpPut, Kind: store.KindSpec, Key: "legacy", Meta: []byte(meta)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, _ := bootPersistent(t, cfg)
	spec := pollSpec(t, ts2, "legacy", func(b map[string]any) bool {
		return b["release_id"] != nil || b["state"] == "backoff"
	})
	if spec["state"] == "backoff" {
		t.Fatalf("legacy spec failed to reconcile: %v", spec["last_error"])
	}
	status, rel := doJSON(t, "GET", ts2.URL+"/v1/releases/"+spec["release_id"].(string), nil)
	if status != http.StatusOK {
		t.Fatalf("release: %d %v", status, rel)
	}
	crit := rel["measurements"].(map[string]any)["criteria"].(map[string]any)["k-anonymity"].(map[string]any)
	if crit["target"] != float64(10) || crit["satisfied"] != true {
		t.Errorf("legacy spec release k-anonymity = %v, want target 10, satisfied", crit)
	}
}

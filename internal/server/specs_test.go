package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ppdp/ppdp/internal/republish"
	"github.com/ppdp/ppdp/internal/synth"
)

// censusChunks renders one synthetic census population as CSV slices split at
// the given row boundaries. Later chunks hold brand-new individuals, so
// appending them models the paper's sequential-republication setting: each
// generation adds records, none are updated in place.
func censusChunks(t testing.TB, bounds ...int) [][]byte {
	t.Helper()
	total := bounds[len(bounds)-1]
	tbl := synth.Census(total, 7)
	out := make([][]byte, 0, len(bounds))
	lo := 0
	for _, hi := range bounds {
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		sub, err := tbl.Select(idx)
		if err != nil {
			t.Fatalf("select rows [%d,%d): %v", lo, hi, err)
		}
		var buf bytes.Buffer
		if err := sub.WriteCSV(&buf); err != nil {
			t.Fatalf("write csv: %v", err)
		}
		out = append(out, buf.Bytes())
		lo = hi
	}
	return out
}

// sendCSV issues a raw CSV request (dataset upload or row append) and decodes
// the JSON response.
func sendCSV(t testing.TB, method, url string, body []byte) (int, map[string]any) {
	t.Helper()
	status, out, err := trySendCSV(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, out
}

// trySendCSV is sendCSV returning its failure, for goroutines other than
// the test's own, which must not call t.Fatal.
func trySendCSV(method, url string, body []byte) (int, map[string]any, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	out := map[string]any{}
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			return 0, nil, fmt.Errorf("%s %s: non-JSON response %d: %s", method, url, resp.StatusCode, raw)
		}
	}
	return resp.StatusCode, out, nil
}

// pollSpec polls GET /v1/specs/{name} until pred accepts the body.
func pollSpec(t testing.TB, ts *httptest.Server, name string, pred func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body := doJSON(t, "GET", ts.URL+"/v1/specs/"+name, nil)
		if status != http.StatusOK {
			t.Fatalf("poll spec %s: %d %v", name, status, body)
		}
		if pred(body) {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("spec %s did not settle: %v", name, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// specSettled matches an idle spec reconciled up to the given dataset
// generation.
func specSettled(gen int) func(map[string]any) bool {
	return func(b map[string]any) bool {
		return b["state"] == "idle" && b["reconciled_generation"] == float64(gen)
	}
}

// TestSpecLifecycleE2E is the acceptance walk for the reconciler subsystem
// with a one-shot algorithm: declare a spec, watch every dataset generation
// reconcile into a fresh release with an atomic id swap, and verify the
// pinning rules (spec-owned releases and spec-watched datasets refuse
// deletion until the spec goes away).
func TestSpecLifecycleE2E(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	chunks := censusChunks(t, 200, 250, 300)

	if status, body := sendCSV(t, "PUT", ts.URL+"/v1/datasets/pop?family=census", chunks[0]); status != http.StatusCreated {
		t.Fatalf("upload: %d %v", status, body)
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"name": "live", "dataset": "pop", "algorithm": "mondrian", "k": 4})
	if status != http.StatusCreated {
		t.Fatalf("create spec: %d %v", status, body)
	}

	body = pollSpec(t, ts, "live", specSettled(1))
	rel1, _ := body["release_id"].(string)
	if rel1 == "" {
		t.Fatalf("no release after first reconciliation: %v", body)
	}
	if status, _ := doJSON(t, "GET", ts.URL+"/v1/releases/"+rel1, nil); status != http.StatusOK {
		t.Fatalf("release %s not readable: %d", rel1, status)
	}
	// The spec owns its release: ad-hoc deletion is refused.
	status, body = doJSON(t, "DELETE", ts.URL+"/v1/releases/"+rel1, nil)
	if status != http.StatusConflict || errorCode(t, body) != "spec_pinned" {
		t.Fatalf("delete owned release: %d %v", status, body)
	}

	// Each append bumps the generation and reconciles to a fresh release;
	// the previous one is swapped out atomically and disappears.
	if status, body := sendCSV(t, "POST", ts.URL+"/v1/datasets/pop/rows", chunks[1]); status != http.StatusOK || body["rows"] != float64(250) {
		t.Fatalf("append 1: %d %v", status, body)
	}
	body = pollSpec(t, ts, "live", specSettled(2))
	rel2, _ := body["release_id"].(string)
	if rel2 == "" || rel2 == rel1 {
		t.Fatalf("expected a fresh release after append, got %q (was %q)", rel2, rel1)
	}
	if status, _ := doJSON(t, "GET", ts.URL+"/v1/releases/"+rel1, nil); status != http.StatusNotFound {
		t.Fatalf("old release %s should be gone after swap: %d", rel1, status)
	}

	if status, body := sendCSV(t, "POST", ts.URL+"/v1/datasets/pop/rows", chunks[2]); status != http.StatusOK || body["rows"] != float64(300) {
		t.Fatalf("append 2: %d %v", status, body)
	}
	body = pollSpec(t, ts, "live", specSettled(3))
	rel3, _ := body["release_id"].(string)
	if rel3 == "" || rel3 == rel2 {
		t.Fatalf("expected a third release, got %q (was %q)", rel3, rel2)
	}

	// A spec-watched dataset refuses deletion with a machine-readable code.
	status, body = doJSON(t, "DELETE", ts.URL+"/v1/datasets/pop", nil)
	if status != http.StatusConflict || errorCode(t, body) != "spec_pinned" {
		t.Fatalf("delete watched dataset: %d %v", status, body)
	}

	// Deleting the spec cascades to its release and releases the dataset.
	if status, body := doJSON(t, "DELETE", ts.URL+"/v1/specs/live", nil); status != http.StatusNoContent {
		t.Fatalf("delete spec: %d %v", status, body)
	}
	if status, _ := doJSON(t, "GET", ts.URL+"/v1/specs/live", nil); status != http.StatusNotFound {
		t.Fatalf("spec should be gone: %d", status)
	}
	if status, _ := doJSON(t, "GET", ts.URL+"/v1/releases/"+rel3, nil); status != http.StatusNotFound {
		t.Fatalf("owned release should cascade with the spec: %d", status)
	}
	if status, body := doJSON(t, "DELETE", ts.URL+"/v1/datasets/pop", nil); status != http.StatusNoContent {
		t.Fatalf("delete dataset after spec removal: %d %v", status, body)
	}
}

// TestSpecMInvarianceSequential drives the paper's sequential-republication
// scenario end to end: a spec with an m-invariance policy accumulates a
// release history across three dataset generations, and the accumulated
// QIT/ST tables pass the cross-release invariance checker.
func TestSpecMInvarianceSequential(t *testing.T) {
	ts, srv := newTestServer(t, Config{Workers: 2})
	chunks := censusChunks(t, 200, 250, 300)

	if status, body := sendCSV(t, "PUT", ts.URL+"/v1/datasets/pop?family=census", chunks[0]); status != http.StatusCreated {
		t.Fatalf("upload: %d %v", status, body)
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"name": "seq", "dataset": "pop", "algorithm": "republish",
		"policy": map[string]any{"criteria": []map[string]any{
			{"type": "m-invariance", "m": 2, "id": "name"},
		}},
	})
	if status != http.StatusCreated {
		t.Fatalf("create spec: %d %v", status, body)
	}
	// The spec keeps only metadata per historical release, so the chain is
	// collected from each generation's landed release as it lands.
	var landed []*republish.Release
	collect := func(body map[string]any) {
		t.Helper()
		relID, _ := body["release_id"].(string)
		stored, err := srv.reg.releases.get(relID)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := republish.ReleaseFromTables(len(landed)+1, stored.release.QIT, stored.release.ST)
		if err != nil {
			t.Fatal(err)
		}
		landed = append(landed, rel)
	}
	collect(pollSpec(t, ts, "seq", specSettled(1)))
	for i, chunk := range chunks[1:] {
		if status, body := sendCSV(t, "POST", ts.URL+"/v1/datasets/pop/rows", chunk); status != http.StatusOK {
			t.Fatalf("append %d: %d %v", i+1, status, body)
		}
		collect(pollSpec(t, ts, "seq", specSettled(2+i)))
	}

	body = pollSpec(t, ts, "seq", specSettled(3))
	hist, _ := body["history"].([]any)
	if len(hist) != 3 {
		t.Fatalf("history = %v, want 3 entries", body["history"])
	}
	for i, h := range hist {
		entry := h.(map[string]any)
		if entry["version"] != float64(i+1) {
			t.Errorf("history[%d].version = %v", i, entry["version"])
		}
		if rows, _ := entry["rows"].(float64); rows < 200 {
			t.Errorf("history[%d].rows = %v", i, entry["rows"])
		}
	}
	inv, _ := body["invariant"].(map[string]any)
	if inv == nil || inv["ok"] != true {
		t.Fatalf("invariant verdict = %v, want ok", body["invariant"])
	}

	// The stored release carries the criterion verdict in its measurements.
	relID, _ := body["release_id"].(string)
	status, rel := doJSON(t, "GET", ts.URL+"/v1/releases/"+relID, nil)
	if status != http.StatusOK {
		t.Fatalf("release: %d %v", status, rel)
	}

	// Independently re-run the checker over the accumulated history.
	run, err := srv.reg.specRunSnapshot("seq")
	if err != nil {
		t.Fatal(err)
	}
	if len(run.History) != 3 {
		t.Fatalf("stored history = %d releases", len(run.History))
	}
	ok, detail, err := republish.CheckInvariance(landed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("accumulated history violates m-invariance: %s", detail)
	}
}

// TestSpecNoopShortCircuit replaces a dataset with byte-identical content:
// the generation bumps, but the fingerprint matches the reconciled one, so
// the reconciler must short-circuit without re-anonymizing — the release id
// stays put and the noop counter moves.
func TestSpecNoopShortCircuit(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	chunks := censusChunks(t, 200)

	if status, body := sendCSV(t, "PUT", ts.URL+"/v1/datasets/pop?family=census", chunks[0]); status != http.StatusCreated {
		t.Fatalf("upload: %d %v", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"name": "live", "dataset": "pop", "algorithm": "mondrian", "k": 4}); status != http.StatusCreated {
		t.Fatalf("create spec: %d %v", status, body)
	}
	body := pollSpec(t, ts, "live", specSettled(1))
	rel1, _ := body["release_id"].(string)

	if status, body := sendCSV(t, "PUT", ts.URL+"/v1/datasets/pop?family=census", chunks[0]); status != http.StatusCreated {
		t.Fatalf("re-upload: %d %v", status, body)
	}
	body = pollSpec(t, ts, "live", specSettled(2))
	if rel2, _ := body["release_id"].(string); rel2 != rel1 {
		t.Fatalf("release changed on identical content: %q -> %q", rel1, rel2)
	}

	status, health := doJSON(t, "GET", ts.URL+"/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}
	recon, _ := health["reconcile"].(map[string]any)
	if recon == nil {
		t.Fatalf("healthz has no reconcile block: %v", health)
	}
	if noop, _ := recon["noop"].(float64); noop < 1 {
		t.Errorf("reconcile.noop = %v, want >= 1", recon["noop"])
	}
	if lag, _ := recon["generation_lag"].(float64); lag != 0 {
		t.Errorf("reconcile.generation_lag = %v, want 0", recon["generation_lag"])
	}
}

// TestSpecValidation covers the declaration-time rejections.
func TestSpecValidation(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	seedDataset(t, ts, "census", "census", 200)

	// Missing name.
	status, body := doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"dataset": "census", "algorithm": "mondrian", "k": 4})
	if status != http.StatusBadRequest {
		t.Fatalf("missing name: %d %v", status, body)
	}
	// Unknown dataset.
	status, body = doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"name": "x", "dataset": "nope", "algorithm": "mondrian", "k": 4})
	if status != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d %v", status, body)
	}
	// An m-invariance criterion paired with a one-shot algorithm.
	status, body = doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"name": "x", "dataset": "census", "algorithm": "mondrian",
		"policy": map[string]any{"criteria": []map[string]any{
			{"type": "m-invariance", "m": 2, "id": "name"},
		}}})
	if status != http.StatusBadRequest || errorCode(t, body) != "bad_config" {
		t.Fatalf("m-invariance on mondrian: %d %v", status, body)
	}
	// Duplicate spec name.
	if status, body := doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"name": "x", "dataset": "census", "algorithm": "mondrian", "k": 4}); status != http.StatusCreated {
		t.Fatalf("create spec: %d %v", status, body)
	}
	status, body = doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"name": "x", "dataset": "census", "algorithm": "mondrian", "k": 4})
	if status != http.StatusConflict || errorCode(t, body) != "conflict" {
		t.Fatalf("duplicate spec: %d %v", status, body)
	}
	// The listing strips policy documents but keeps the declaration.
	status, body = doJSON(t, "GET", ts.URL+"/v1/specs", nil)
	if status != http.StatusOK {
		t.Fatalf("list specs: %d %v", status, body)
	}
	list, _ := body["specs"].([]any)
	if len(list) != 1 {
		t.Fatalf("specs = %v", body)
	}
	if entry := list[0].(map[string]any); entry["name"] != "x" || entry["policy"] != nil {
		t.Fatalf("listing entry = %v", entry)
	}
}

// TestSpecReconcileFailureSurfaces declares a spec whose runs can never
// succeed (m=10 against a two-valued sensitive column fails m-eligibility)
// and asserts the failure is observable: backoff state with the last error on
// the spec, and the error counter in /healthz.
func TestSpecReconcileFailureSurfaces(t *testing.T) {
	ts, _ := newTestServer(t, Config{
		Workers: 1, ReconcileBackoff: 5 * time.Millisecond, ReconcileBackoffMax: 50 * time.Millisecond})
	seedDataset(t, ts, "census", "census", 200)

	status, body := doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"name": "doomed", "dataset": "census", "algorithm": "republish",
		"policy": map[string]any{"criteria": []map[string]any{
			{"type": "m-invariance", "m": 10, "id": "name"},
		}}})
	if status != http.StatusCreated {
		t.Fatalf("create spec: %d %v", status, body)
	}

	body = pollSpec(t, ts, "doomed", func(b map[string]any) bool {
		retries, _ := b["retries"].(float64)
		return b["state"] == "backoff" && retries >= 2
	})
	if msg, _ := body["last_error"].(string); !strings.Contains(msg, "m-eligibility") {
		t.Errorf("last_error = %q, want the eligibility violation", msg)
	}
	if body["release_id"] != nil && body["release_id"] != "" {
		t.Errorf("failed spec must not own a release: %v", body["release_id"])
	}

	status, health := doJSON(t, "GET", ts.URL+"/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}
	recon, _ := health["reconcile"].(map[string]any)
	if errs, _ := recon["errors"].(float64); errs < 1 {
		t.Errorf("reconcile.errors = %v, want >= 1", recon["errors"])
	}
	if retries, _ := recon["retries"].(float64); retries < 1 {
		t.Errorf("reconcile.retries = %v, want >= 1", recon["retries"])
	}
}

// TestRepublishRunErrorPaths exercises the republish algorithm's error
// classification through the synchronous anonymize endpoint under
// policy-driven configuration: an id column the dataset does not have is the
// client's configuration fault (400), a satisfiable-looking policy the data
// cannot meet is 422.
func TestRepublishRunErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	seedDataset(t, ts, "census", "census", 200)

	status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{
		"dataset": "census", "algorithm": "republish",
		"policy": map[string]any{"criteria": []map[string]any{
			{"type": "m-invariance", "m": 2, "id": "nope"},
		}}})
	if status != http.StatusBadRequest || errorCode(t, body) != "bad_config" {
		t.Fatalf("unknown id column: %d %v", status, body)
	}

	status, body = doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{
		"dataset": "census", "algorithm": "republish",
		"policy": map[string]any{"criteria": []map[string]any{
			{"type": "m-invariance", "m": 10, "id": "name"},
		}}})
	if status != http.StatusUnprocessableEntity || errorCode(t, body) != "unsatisfiable" {
		t.Fatalf("m=10 against two sensitive values: %d %v", status, body)
	}
}

// TestAppendRowsValidation covers the append endpoint's rejections: unknown
// dataset, malformed CSV, and a CSV that parses under a different schema.
func TestAppendRowsValidation(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	seedDataset(t, ts, "census", "census", 100)

	status, body := sendCSV(t, "POST", ts.URL+"/v1/datasets/nope/rows", []byte("a,b\n1,2\n"))
	if status != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d %v", status, body)
	}
	status, body = sendCSV(t, "POST", ts.URL+"/v1/datasets/census/rows", []byte("a,b\n1,2,3\n"))
	if status != http.StatusBadRequest {
		t.Fatalf("malformed csv: %d %v", status, body)
	}
	// A hospital-schema CSV does not parse under the census family.
	var hosp bytes.Buffer
	if err := synth.Hospital(20, 1).WriteCSV(&hosp); err != nil {
		t.Fatal(err)
	}
	status, body = sendCSV(t, "POST", ts.URL+"/v1/datasets/census/rows", hosp.Bytes())
	if status != http.StatusBadRequest {
		t.Fatalf("cross-schema append: %d %v", status, body)
	}
	code := errorCode(t, body)
	if code != "schema_mismatch" && code != "bad_csv" {
		t.Fatalf("cross-schema append code = %q", code)
	}
	// The dataset is untouched.
	status, body = doJSON(t, "GET", ts.URL+"/v1/datasets/census", nil)
	if status != http.StatusOK || body["rows"] != float64(100) {
		t.Fatalf("dataset after rejected appends: %d %v", status, body)
	}
}

// TestPersistSpecRestart is the durability acceptance test for the
// reconciler: a spec with an m-invariance history survives a restart
// byte-identically, and reconciliation resumes on the recovered state — a
// post-restart append must land release 3 on a history whose versions chain
// across the restart.
func TestPersistSpecRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 2}
	ts, srv := bootPersistent(t, cfg)
	chunks := censusChunks(t, 200, 250, 300)

	if status, body := sendCSV(t, "PUT", ts.URL+"/v1/datasets/pop?family=census", chunks[0]); status != http.StatusCreated {
		t.Fatalf("upload: %d %v", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"name": "seq", "dataset": "pop", "algorithm": "republish",
		"policy": map[string]any{"criteria": []map[string]any{
			{"type": "m-invariance", "m": 2, "id": "name"},
		}}}); status != http.StatusCreated {
		t.Fatalf("create spec: %d %v", status, body)
	}
	pollSpec(t, ts, "seq", specSettled(1))
	if status, body := sendCSV(t, "POST", ts.URL+"/v1/datasets/pop/rows", chunks[1]); status != http.StatusOK {
		t.Fatalf("append: %d %v", status, body)
	}
	body := pollSpec(t, ts, "seq", specSettled(2))
	relID, _ := body["release_id"].(string)
	if relID == "" {
		t.Fatalf("no release: %v", body)
	}

	reads := []string{
		"/v1/specs",
		"/v1/specs/seq",
		"/v1/releases/" + relID,
		"/v1/datasets/pop",
	}
	golden := map[string][]byte{}
	for _, path := range reads {
		status, raw := getRaw(t, ts.URL+path, "")
		if status != http.StatusOK {
			t.Fatalf("golden read %s: %d %s", path, status, raw)
		}
		golden[path] = raw
	}
	_, goldenCSV := getRaw(t, ts.URL+"/v1/releases/"+relID+"/data", "text/csv")

	ts.Close()
	srv.Close()

	ts2, _ := bootPersistent(t, cfg)
	pollSpec(t, ts2, "seq", specSettled(2))
	for _, path := range reads {
		status, raw := getRaw(t, ts2.URL+path, "")
		if status != http.StatusOK {
			t.Fatalf("recovered read %s: %d %s", path, status, raw)
		}
		if !bytes.Equal(raw, golden[path]) {
			t.Errorf("%s diverged after restart:\n  before: %s\n  after:  %s", path, golden[path], raw)
		}
	}
	if _, raw := getRaw(t, ts2.URL+"/v1/releases/"+relID+"/data", "text/csv"); !bytes.Equal(raw, goldenCSV) {
		t.Errorf("release data diverged after restart")
	}

	// Reconciliation resumes on the recovered history: the next generation
	// publishes release 3 and the full three-release chain stays invariant.
	if status, body := sendCSV(t, "POST", ts2.URL+"/v1/datasets/pop/rows", chunks[2]); status != http.StatusOK {
		t.Fatalf("append after restart: %d %v", status, body)
	}
	body = pollSpec(t, ts2, "seq", specSettled(3))
	hist, _ := body["history"].([]any)
	if len(hist) != 3 {
		t.Fatalf("history after restart = %v, want 3 entries", body["history"])
	}
	for i, h := range hist {
		if v := h.(map[string]any)["version"]; v != float64(i+1) {
			t.Fatalf("history[%d].version = %v after restart", i, v)
		}
	}
	if inv, _ := body["invariant"].(map[string]any); inv == nil || inv["ok"] != true {
		t.Fatalf("invariant after restart = %v", body["invariant"])
	}
}

// TestPersistSpecBackoffRestart restarts mid-backoff: a spec whose runs fail
// must come back tracked and still lagging, not silently marked clean.
func TestPersistSpecBackoffRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1,
		ReconcileBackoff: 5 * time.Millisecond, ReconcileBackoffMax: 50 * time.Millisecond}
	ts, srv := bootPersistent(t, cfg)
	seedDataset(t, ts, "census", "census", 200)
	if status, body := doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"name": "doomed", "dataset": "census", "algorithm": "republish",
		"policy": map[string]any{"criteria": []map[string]any{
			{"type": "m-invariance", "m": 10, "id": "name"},
		}}}); status != http.StatusCreated {
		t.Fatalf("create spec: %d %v", status, body)
	}
	pollSpec(t, ts, "doomed", func(b map[string]any) bool {
		return b["state"] == "backoff"
	})
	ts.Close()
	srv.Close()

	ts2, _ := bootPersistent(t, cfg)
	body := pollSpec(t, ts2, "doomed", func(b map[string]any) bool {
		return b["state"] == "backoff"
	})
	if gen, _ := body["reconciled_generation"].(float64); gen != 0 {
		t.Errorf("reconciled_generation = %v after restart, want 0 (runs never succeeded)", gen)
	}
	if msg, _ := body["last_error"].(string); !strings.Contains(msg, "m-eligibility") {
		t.Errorf("last_error = %q after restart", msg)
	}
}

// sanity guard: the chunk helper really produces disjoint individuals, so the
// sequential tests exercise m-invariance growth rather than re-publication of
// the same population.
func TestCensusChunksDisjoint(t *testing.T) {
	chunks := censusChunks(t, 3, 6)
	for i, c := range chunks {
		if !bytes.HasPrefix(c, []byte("name,")) {
			t.Fatalf("chunk %d lacks the census header: %q", i, c[:20])
		}
	}
	if id := fmt.Sprintf("person-%06d", 0); !bytes.Contains(chunks[0], []byte(id)) || bytes.Contains(chunks[1], []byte(id)) {
		t.Fatalf("chunks overlap on %s", id)
	}
}

// TestSpecFlatParamsPublish is the regression test for flat-parameter specs
// declaring criteria their algorithm does not enforce (datafly with l,
// anatomy with an entropy diversity_mode): each must publish, and its
// release must carry exactly the policy and measurements POST /v1/anonymize
// returns for the same declaration — on the first reconciliation and again
// after the spec is recovered from the data directory and reconciles a new
// dataset generation.
func TestSpecFlatParamsPublish(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 2,
		ReconcileBackoff: 5 * time.Millisecond, ReconcileBackoffMax: 50 * time.Millisecond}
	ts, srv := bootPersistent(t, cfg)
	chunks := map[string][][]byte{}
	for _, ds := range []struct{ name, family string }{{"pop", "census"}, {"hosp", "hospital"}} {
		fam, err := synth.FamilyByName(ds.family)
		if err != nil {
			t.Fatal(err)
		}
		tbl := fam.Generate(300, 7)
		for _, r := range [][2]int{{0, 200}, {200, 300}} {
			idx := make([]int, 0, r[1]-r[0])
			for i := r[0]; i < r[1]; i++ {
				idx = append(idx, i)
			}
			sub, err := tbl.Select(idx)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sub.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			chunks[ds.name] = append(chunks[ds.name], buf.Bytes())
		}
		url := fmt.Sprintf("%s/v1/datasets/%s?family=%s", ts.URL, ds.name, ds.family)
		if status, body := sendCSV(t, "PUT", url, chunks[ds.name][0]); status != http.StatusCreated {
			t.Fatalf("upload %s: %d %v", ds.name, status, body)
		}
	}
	specs := map[string]map[string]any{
		"datafly-l": {"dataset": "pop", "algorithm": "datafly", "k": 5, "l": 2},
		"anatomy-entropy": {"dataset": "hosp", "algorithm": "anatomy", "l": 2,
			"diversity_mode": "entropy"},
	}
	for name, decl := range specs {
		body := map[string]any{"name": name}
		for k, v := range decl {
			body[k] = v
		}
		if status, resp := doJSON(t, "POST", ts.URL+"/v1/specs", body); status != http.StatusCreated {
			t.Fatalf("create spec %s: %d %v", name, status, resp)
		}
	}
	check := func(ts *httptest.Server, gen int) {
		t.Helper()
		for name, decl := range specs {
			spec := pollSpec(t, ts, name, func(b map[string]any) bool {
				return specSettled(gen)(b) || b["state"] == "backoff"
			})
			if spec["state"] == "backoff" {
				t.Fatalf("spec %s stuck in backoff: %v", name, spec["last_error"])
			}
			status, rel := doJSON(t, "GET", ts.URL+"/v1/releases/"+spec["release_id"].(string), nil)
			if status != http.StatusOK {
				t.Fatalf("spec %s release: %d %v", name, status, rel)
			}
			status, anon := doJSON(t, "POST", ts.URL+"/v1/anonymize", decl)
			if status != http.StatusOK {
				t.Fatalf("anonymize %s: %d %v", name, status, anon)
			}
			for _, field := range []string{"policy", "measurements"} {
				if !reflect.DeepEqual(rel[field], anon[field]) {
					t.Errorf("generation %d, spec %s: release %s = %v, anonymize returns %v",
						gen, name, field, rel[field], anon[field])
				}
			}
			if !reflect.DeepEqual(spec["policy"], anon["policy"]) {
				t.Errorf("spec %s policy = %v, anonymize echoes %v", name, spec["policy"], anon["policy"])
			}
		}
	}
	check(ts, 1)

	ts.Close()
	srv.Close()
	ts, _ = bootPersistent(t, cfg)
	for _, ds := range []string{"pop", "hosp"} {
		if status, body := sendCSV(t, "POST", ts.URL+"/v1/datasets/"+ds+"/rows", chunks[ds][1]); status != http.StatusOK {
			t.Fatalf("append %s: %d %v", ds, status, body)
		}
	}
	check(ts, 2)
}

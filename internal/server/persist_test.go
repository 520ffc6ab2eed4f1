package server

import (
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ppdp/ppdp/internal/synth"
)

// bootPersistent starts the service through Open so the data directory is
// recovered and write-through journaling is armed. Close is idempotent, so
// tests that restart mid-flight can shut the first incarnation down
// explicitly and still rely on the cleanup.
func bootPersistent(t testing.TB, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, srv
}

// getRaw fetches a URL and returns the status and exact body bytes, for
// golden byte-for-byte comparisons that doJSON's re-decoding would launder.
func getRaw(t testing.TB, url, accept string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
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
	return resp.StatusCode, raw
}

// TestPersistGoldenRecovery is the acceptance test for the durable store: a
// server populated with datasets, policies and releases (microdata and
// anatomy) is shut down and reopened on the same directory, and every read
// endpoint must return byte-identical responses. Fingerprints are compared
// directly as well, so "identical" is anchored in the content hash rather
// than only in the JSON rendering.
func TestPersistGoldenRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1}
	ts, srv := bootPersistent(t, cfg)

	seedDataset(t, ts, "census", "census", 400)
	seedDataset(t, ts, "hosp", "hospital", 300)
	if status, body := doJSON(t, "POST", ts.URL+"/v1/policies", map[string]any{
		"name": "strict",
		"policy": map[string]any{"criteria": []map[string]any{
			{"type": "k-anonymity", "k": 4},
			{"type": "distinct-l-diversity", "l": 2},
		}},
	}); status != http.StatusCreated {
		t.Fatalf("create policy: %d %v", status, body)
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{
		"dataset": "census", "algorithm": "mondrian", "policy_ref": "strict", "store": true})
	if status != http.StatusOK {
		t.Fatalf("anonymize: %d %v", status, body)
	}
	microID, _ := body["release_id"].(string)
	status, body = doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{
		"dataset": "hosp", "algorithm": "anatomy", "l": 2, "store": true})
	if status != http.StatusOK {
		t.Fatalf("anatomy: %d %v", status, body)
	}
	anatID, _ := body["release_id"].(string)
	if microID == "" || anatID == "" {
		t.Fatalf("missing release ids: %q %q", microID, anatID)
	}

	// Golden bodies: everything a client can read back.
	reads := []struct {
		name, path, accept string
	}{
		{"dataset list", "/v1/datasets", ""},
		{"dataset meta", "/v1/datasets/census", ""},
		{"dataset rows", "/v1/datasets/census?limit=20&offset=5", "application/json"},
		{"dataset csv", "/v1/datasets/census", "text/csv"},
		{"policy", "/v1/policies/strict", ""},
		{"policy list", "/v1/policies", ""},
		{"release list", "/v1/releases", ""},
		{"micro release", "/v1/releases/" + microID, ""},
		{"micro csv", "/v1/releases/" + microID + "/data", ""},
		{"micro risk", "/v1/releases/" + microID + "/risk", ""},
		{"micro utility", "/v1/releases/" + microID + "/utility", ""},
		{"anatomy release", "/v1/releases/" + anatID, ""},
		{"anatomy qit", "/v1/releases/" + anatID + "/data?table=qit", ""},
		{"anatomy st", "/v1/releases/" + anatID + "/data?table=st", ""},
	}
	golden := make([][]byte, len(reads))
	for i, rd := range reads {
		status, raw := getRaw(t, ts.URL+rd.path, rd.accept)
		if status != http.StatusOK {
			t.Fatalf("%s: %d %s", rd.name, status, raw)
		}
		golden[i] = raw
	}
	censusFP := srv.reg.datasets.items["census"].table.Fingerprint()

	// Restart on the same directory.
	ts.Close()
	srv.Close()
	ts2, srv2 := bootPersistent(t, cfg)

	for i, rd := range reads {
		status, raw := getRaw(t, ts2.URL+rd.path, rd.accept)
		if status != http.StatusOK {
			t.Fatalf("recovered %s: %d %s", rd.name, status, raw)
		}
		if string(raw) != string(golden[i]) {
			t.Errorf("%s changed across restart:\n before: %s\n after:  %s", rd.name, golden[i], raw)
		}
	}
	if got := srv2.reg.datasets.items["census"].table.Fingerprint(); got != censusFP {
		t.Errorf("census fingerprint changed across restart: %s != %s", got, censusFP)
	}
	// The recovered registry is live, not a read-only replica: new work on
	// top of recovered state must succeed (hierarchies were rebuilt).
	if status, body := doJSON(t, "POST", ts2.URL+"/v1/anonymize", map[string]any{
		"dataset": "census", "algorithm": "datafly", "k": 3}); status != http.StatusOK {
		t.Fatalf("anonymize after recovery: %d %v", status, body)
	}
	// Recovery stats are exposed on /healthz.
	_, health := doJSON(t, "GET", ts2.URL+"/healthz", nil)
	storage, ok := health["storage"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no storage block: %v", health)
	}
	if rec, _ := storage["recovered_records"].(float64); rec < 5 {
		t.Errorf("recovered_records = %v, want >= 5", storage["recovered_records"])
	}
}

// TestPersistNonFiniteMeasurement: recursive (c,l)-diversity measures +Inf
// on a class with fewer than l sensitive values. A stored release with that
// measurement must journal (as null), and after a restart its report must be
// byte-identical, null included.
func TestPersistNonFiniteMeasurement(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Workers: 1}
	ts, srv := bootPersistent(t, cfg)
	seedDataset(t, ts, "census", "census", 400)
	status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{
		"dataset": "census", "k": 5, "l": 2, "diversity_mode": "recursive", "sensitive": "occupation", "store": true})
	if status != http.StatusOK {
		t.Fatalf("anonymize: %d %v", status, body)
	}
	path := "/v1/releases/" + body["release_id"].(string)
	status, before := getRaw(t, ts.URL+path, "")
	if status != http.StatusOK {
		t.Fatalf("release: %d %s", status, before)
	}
	if !strings.Contains(string(before), `"measured": null`) {
		t.Fatalf("release report carries no null measurement: %s", before)
	}

	ts.Close()
	srv.Close()
	ts2, _ := bootPersistent(t, cfg)
	status, after := getRaw(t, ts2.URL+path, "")
	if status != http.StatusOK {
		t.Fatalf("recovered release: %d %s", status, after)
	}
	if string(after) != string(before) {
		t.Errorf("release changed across restart:\n before: %s\n after:  %s", before, after)
	}
}

// TestPersistDeleteSurvivesRestart checks that deletions are journaled too:
// a deleted policy and release must stay gone after recovery, and a release
// id is never reused for new work after a restart.
func TestPersistDeleteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1}
	ts, srv := bootPersistent(t, cfg)
	seedDataset(t, ts, "d", "census", 200)
	status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize",
		map[string]any{"dataset": "d", "k": 5, "store": true})
	if status != http.StatusOK {
		t.Fatalf("anonymize: %d %v", status, body)
	}
	first, _ := body["release_id"].(string)
	if status, _ := doJSON(t, "DELETE", ts.URL+"/v1/releases/"+first, nil); status != http.StatusNoContent {
		t.Fatalf("delete release: %d", status)
	}

	ts.Close()
	srv.Close()
	ts2, _ := bootPersistent(t, cfg)
	if status, _ := doJSON(t, "GET", ts2.URL+"/v1/releases/"+first, nil); status != http.StatusNotFound {
		t.Errorf("deleted release still served after restart: %d", status)
	}
	status, body = doJSON(t, "POST", ts2.URL+"/v1/anonymize",
		map[string]any{"dataset": "d", "k": 4, "store": true})
	if status != http.StatusOK {
		t.Fatalf("anonymize after restart: %d %v", status, body)
	}
	if next, _ := body["release_id"].(string); next == first {
		t.Errorf("release id %q reused after delete+restart", next)
	}
}

// TestPersistJobDurability runs an async job and restarts the server: the
// published release must survive, proving the job executor publishes through
// the same write-through path as the sync handler.
func TestPersistJobDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1, JobWorkers: 2}
	ts, srv := bootPersistent(t, cfg)
	seedDataset(t, ts, "census", "census", 300)
	status, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
		map[string]any{"dataset": "census", "algorithm": "mondrian", "k": 5, "store": true})
	if status != http.StatusAccepted {
		t.Fatalf("submit job: %d %v", status, body)
	}
	id, _ := body["id"].(string)
	final := pollJob(t, ts, id)
	if final["state"] != "succeeded" {
		t.Fatalf("job: %v", final)
	}
	result, _ := final["result"].(map[string]any)
	relID, _ := result["release_id"].(string)
	if relID == "" {
		t.Fatalf("job result has no release_id: %v", final)
	}
	csv := fetchCSV(t, ts, relID)

	ts.Close()
	srv.Close()
	ts2, _ := bootPersistent(t, cfg)
	if got := fetchCSV(t, ts2, relID); string(got) != string(csv) {
		t.Errorf("job release data changed across restart")
	}
}

// TestPersistSnapshotEndpoint drives POST /v1/snapshot: it folds the WAL
// into a new manifest generation, after which the directory is a consistent
// copyable backup — verified by booting a second server from a file copy.
func TestPersistSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1}
	ts, _ := bootPersistent(t, cfg)
	seedDataset(t, ts, "census", "census", 250)
	if status, body := doJSON(t, "POST", ts.URL+"/v1/policies", map[string]any{
		"name": "p", "policy": map[string]any{"criteria": []map[string]any{{"type": "k-anonymity", "k": 3}}},
	}); status != http.StatusCreated {
		t.Fatalf("policy: %d %v", status, body)
	}

	status, body := doJSON(t, "POST", ts.URL+"/v1/snapshot", nil)
	if status != http.StatusOK {
		t.Fatalf("snapshot: %d %v", status, body)
	}
	storage, ok := body["storage"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot response has no storage block: %v", body)
	}
	if gen, _ := storage["generation"].(float64); gen < 1 {
		t.Errorf("generation = %v after checkpoint, want >= 1", storage["generation"])
	}
	if wal, _ := storage["wal_bytes"].(float64); wal != 0 {
		t.Errorf("wal_bytes = %v after checkpoint, want 0", storage["wal_bytes"])
	}

	// Copy the quiesced directory and boot a server from the copy.
	backup := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		copyTree(t, filepath.Join(dir, e.Name()), filepath.Join(backup, e.Name()))
	}
	ts2, _ := bootPersistent(t, Config{DataDir: backup, Workers: 1})
	if status, body := doJSON(t, "GET", ts2.URL+"/v1/datasets/census", nil); status != http.StatusOK {
		t.Fatalf("restored dataset: %d %v", status, body)
	}
	if status, body := doJSON(t, "GET", ts2.URL+"/v1/policies/p", nil); status != http.StatusOK {
		t.Fatalf("restored policy: %d %v", status, body)
	}

	// A server without a data directory answers 422, not 500.
	tsMem, _ := newTestServer(t, Config{})
	status, body = doJSON(t, "POST", tsMem.URL+"/v1/snapshot", nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("snapshot without storage: %d %v", status, body)
	}
	if code := errorCode(t, body); code != "no_storage" {
		t.Errorf("code = %q, want no_storage", code)
	}
}

func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	info, err := os.Stat(src)
	if err != nil {
		t.Fatal(err)
	}
	if info.IsDir() {
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			copyTree(t, filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
		}
		return
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPersistConfigurableCaps exercises the Config-level registry caps over
// HTTP: the second dataset, release and policy must be refused with 507 once
// each cap is set to one.
func TestPersistConfigurableCaps(t *testing.T) {
	ts, _ := newTestServer(t, Config{
		Workers: 1, MaxDatasets: 1, MaxReleases: 1, MaxPolicies: 1,
	})
	seedDataset(t, ts, "one", "census", 150)
	status, body := doJSON(t, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "two", "family": "census", "rows": 150})
	if status != http.StatusInsufficientStorage {
		t.Fatalf("second dataset: %d %v", status, body)
	}
	if code := errorCode(t, body); code != "registry_full" {
		t.Errorf("dataset code = %q", code)
	}

	if status, body := doJSON(t, "POST", ts.URL+"/v1/policies", map[string]any{
		"name": "a", "policy": map[string]any{"criteria": []map[string]any{{"type": "k-anonymity", "k": 2}}},
	}); status != http.StatusCreated {
		t.Fatalf("first policy: %d %v", status, body)
	}
	status, body = doJSON(t, "POST", ts.URL+"/v1/policies", map[string]any{
		"name": "b", "policy": map[string]any{"criteria": []map[string]any{{"type": "k-anonymity", "k": 2}}},
	})
	if status != http.StatusInsufficientStorage {
		t.Fatalf("second policy: %d %v", status, body)
	}

	if status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize",
		map[string]any{"dataset": "one", "k": 3, "store": true}); status != http.StatusOK {
		t.Fatalf("first release: %d %v", status, body)
	}
	status, body = doJSON(t, "POST", ts.URL+"/v1/anonymize",
		map[string]any{"dataset": "one", "k": 4, "store": true})
	if status != http.StatusInsufficientStorage {
		t.Fatalf("second release: %d %v", status, body)
	}
	if code := errorCode(t, body); code != "registry_full" {
		t.Errorf("release code = %q", code)
	}
}

// TestPersistCorruptWALRefusesBoot flips a byte inside a committed WAL
// record: recovery must refuse to serve rather than silently drop interior
// history.
func TestPersistCorruptWALRefusesBoot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1}
	ts, srv := bootPersistent(t, cfg)
	seedDataset(t, ts, "census", "census", 150)
	if status, body := doJSON(t, "POST", ts.URL+"/v1/policies", map[string]any{
		"name": "p", "policy": map[string]any{"criteria": []map[string]any{{"type": "k-anonymity", "k": 2}}},
	}); status != http.StatusCreated {
		t.Fatalf("policy: %d %v", status, body)
	}
	ts.Close()
	srv.Close()

	wal := walFile(t, dir)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 16 {
		t.Fatalf("wal too short to corrupt: %d bytes", len(data))
	}
	// Flip a payload byte of the first record (header is 8 bytes of
	// length+CRC); the record count is >= 2, so this is interior damage,
	// not a torn tail.
	n := binary.LittleEndian.Uint32(data[:4])
	if int(8+n) >= len(data) {
		t.Skipf("single-record WAL; cannot build interior corruption")
	}
	data[8+n/2] ^= 0xff
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open succeeded on a WAL with interior corruption")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("error %q does not mention corruption", err)
	}
}

// TestPersistTornTailRecovered appends a partial frame to the WAL, as a
// crash mid-append would leave: boot must succeed, keep every committed
// record, and report the truncation on /healthz.
func TestPersistTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1}
	ts, srv := bootPersistent(t, cfg)
	seedDataset(t, ts, "census", "census", 150)
	ts.Close()
	srv.Close()

	f, err := os.OpenFile(walFile(t, dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], 4096) // promises more than exists
	if _, err := f.Write(frame[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ts2, srv2 := bootPersistent(t, cfg)
	if status, body := doJSON(t, "GET", ts2.URL+"/v1/datasets/census", nil); status != http.StatusOK {
		t.Fatalf("dataset lost to torn tail: %d %v", status, body)
	}
	if !srv2.store.Stats().RecoveredTorn {
		t.Error("Stats().RecoveredTorn = false after torn tail")
	}
	_, health := doJSON(t, "GET", ts2.URL+"/healthz", nil)
	storage, _ := health["storage"].(map[string]any)
	if torn, _ := storage["recovered_torn"].(bool); !torn {
		t.Errorf("healthz recovered_torn = %v, want true", storage["recovered_torn"])
	}
}

// walFile locates the live WAL in a data directory.
func walFile(t testing.TB, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal.*"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no WAL in %s (err=%v)", dir, err)
	}
	return matches[len(matches)-1]
}

// TestPersistStorageFailureSurfaces closes the store under a live server so
// every journal append fails, then drives each mutating route: all of them
// must answer 500 with the "storage" code and leave the registry unchanged
// (the read after each request sees the state from before it).
func TestPersistStorageFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, name := range []string{"ok", "gone", "src", "watched"} {
		seedDataset(t, ts, name, "census", 120)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize",
		map[string]any{"dataset": "src", "k": 5, "store": true}); status != http.StatusOK || body["release_id"] != "r1" {
		t.Fatalf("stored anonymize: %d %v", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/policies",
		map[string]any{"name": "p", "policy": policyDoc(5)}); status != http.StatusCreated {
		t.Fatalf("create policy: %d %v", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/specs",
		map[string]any{"name": "s", "dataset": "watched", "k": 5}); status != http.StatusCreated {
		t.Fatalf("create spec: %d %v", status, body)
	}
	pollSpec(t, ts, "s", specSettled(1))
	csv := censusChunks(t, 60)[0]

	// Closing the store out from under the server makes every subsequent
	// journal append fail deterministically.
	if err := srv.store.Close(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		method, path string
		body         any    // JSON body
		csv          []byte // raw CSV body instead
		// read is fetched after the failure; want is its status.
		read string
		want int
	}{
		{"POST", "/v1/datasets", map[string]any{"name": "doomed", "rows": 120}, nil, "/v1/datasets/doomed", 404},
		{"PUT", "/v1/datasets/ok", nil, csv, "/v1/datasets/ok?limit=1", 200},
		{"POST", "/v1/datasets/ok/rows", nil, csv, "/v1/datasets/ok?limit=1", 200},
		{"DELETE", "/v1/datasets/gone", nil, nil, "/v1/datasets/gone", 200},
		{"POST", "/v1/policies", map[string]any{"name": "q", "policy": policyDoc(5)}, nil, "/v1/policies/q", 404},
		{"DELETE", "/v1/policies/p", nil, nil, "/v1/policies/p", 200},
		{"POST", "/v1/anonymize", map[string]any{"dataset": "ok", "k": 5, "store": true}, nil, "/v1/releases/r3", 404},
		{"DELETE", "/v1/releases/r1", nil, nil, "/v1/releases/r1", 200},
		{"POST", "/v1/specs", map[string]any{"name": "s2", "dataset": "ok", "k": 5}, nil, "/v1/specs/s2", 404},
		{"DELETE", "/v1/specs/s", nil, nil, "/v1/specs/s", 200},
		{"POST", "/v1/snapshot", nil, nil, "/healthz", 200},
	}
	for _, c := range cases {
		var status int
		var body map[string]any
		if c.csv != nil {
			status, body = sendCSV(t, c.method, ts.URL+c.path, c.csv)
		} else {
			status, body = doJSON(t, c.method, ts.URL+c.path, c.body)
		}
		env, _ := body["error"].(map[string]any)
		if status != http.StatusInternalServerError || env["code"] != "storage" {
			t.Errorf("%s %s with a dead store: %d %v, want 500 storage", c.method, c.path, status, body)
		}
		if status, body := doJSON(t, "GET", ts.URL+c.read, nil); status != c.want {
			t.Errorf("after failed %s %s: GET %s = %d %v, want %d", c.method, c.path, c.read, status, body, c.want)
		} else if c.read == "/v1/datasets/ok?limit=1" && body["total_rows"] != float64(120) {
			t.Errorf("after failed %s %s: dataset ok has %v rows, want 120", c.method, c.path, body["total_rows"])
		}
	}
	// The background path reports the same failure on the job.
	status, body := doJSON(t, "POST", ts.URL+"/v1/jobs", map[string]any{"dataset": "ok", "k": 5, "store": true, "no_cache": true})
	if status != http.StatusAccepted {
		t.Fatalf("submit job: %d %v", status, body)
	}
	job := pollJob(t, ts, body["id"].(string))
	if env, _ := job["error"].(map[string]any); job["state"] != "failed" || env["code"] != "storage" {
		t.Errorf("job with a dead store: %v, want failed with code storage", job)
	}
}

// TestPersistUtilityReportsMeasuredRelease stores a hierarchy-generalized
// Mondrian release of a dataset registered with its own hierarchies under a
// family the server cannot rebuild, so the dataset recovers without them.
// The utility report must keep the NCP and discernibility the release was
// measured with, before and after the restart.
func TestPersistUtilityReportsMeasuredRelease(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Workers: 1}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("own", "own-hierarchies", synth.Census(400, 5), synth.CensusHierarchies()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize", map[string]any{
		"dataset": "own", "algorithm": "mondrian", "k": 5, "store": true})
	if status != http.StatusOK {
		t.Fatalf("anonymize: %d %v", status, body)
	}
	measured := body["measurements"].(map[string]any)
	path := ts.URL + "/v1/releases/" + body["release_id"].(string) + "/utility"
	check := func(url, when string) {
		t.Helper()
		status, report := doJSON(t, "GET", url, nil)
		if status != http.StatusOK {
			t.Fatalf("%s: utility %d %v", when, status, report)
		}
		for _, m := range []string{"ncp", "discernibility"} {
			if report[m] != measured[m] {
				t.Errorf("%s: utility %s = %v, the release was measured at %v", when, m, report[m], measured[m])
			}
		}
	}
	check(path, "before restart")

	ts.Close()
	srv.Close()
	ts2, srv2 := bootPersistent(t, cfg)
	if srv2.reg.datasets.items["own"].hier != nil {
		t.Fatal("dataset of an unknown family recovered with hierarchies")
	}
	check(strings.Replace(path, ts.URL, ts2.URL, 1), "after restart")
}

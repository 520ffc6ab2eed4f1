package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ppdp/ppdp/internal/obsmetrics"
)

// This file locks down the observability layer from the outside: a hand-rolled
// Prometheus text-format (0.0.4) validator that checks the exposition's
// structural contract (HELP/TYPE before samples, sorted families, monotone
// cumulative buckets, +Inf bucket == _count), and a concurrency test that
// hammers anonymize/jobs/metrics/healthz in parallel and then proves the
// scraped counters agree with /healthz and with the exact number of requests
// issued. The validator deliberately shares no code with obsmetrics.WriteText:
// it is an independent reading of the format.

// expoSample is one parsed sample line: name{labels} value.
type expoSample struct {
	name   string
	labels map[string]string
	value  float64
}

// expoFamily is one metric family: its HELP text, TYPE and samples.
type expoFamily struct {
	name    string
	help    string
	typ     string
	samples []expoSample
}

// parseExposition parses and validates a text-format 0.0.4 body. Violations
// of the format contract are errors, not ignored lines.
func parseExposition(body string) (map[string]*expoFamily, error) {
	fams := map[string]*expoFamily{}
	var cur *expoFamily
	for i, line := range strings.Split(body, "\n") {
		ln := i + 1
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			name, help, ok := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("line %d: malformed HELP", ln)
			}
			if _, dup := fams[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate family %s", ln, name)
			}
			if cur != nil && name < cur.name {
				return nil, fmt.Errorf("line %d: family %s after %s, not sorted", ln, name, cur.name)
			}
			cur = &expoFamily{name: name, help: help}
			fams[name] = cur
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, ok := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if !ok || cur == nil || name != cur.name {
				return nil, fmt.Errorf("line %d: TYPE without a preceding HELP for %s", ln, name)
			}
			if cur.typ != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", ln, name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
				cur.typ = typ
			default:
				return nil, fmt.Errorf("line %d: unknown type %q", ln, typ)
			}
		case strings.HasPrefix(line, "#"):
			continue // free-form comments are permitted by the format
		default:
			s, err := parseSampleLine(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", ln, err)
			}
			if cur == nil || cur.typ == "" {
				return nil, fmt.Errorf("line %d: sample %s before HELP/TYPE", ln, s.name)
			}
			ok := s.name == cur.name
			if cur.typ == "histogram" {
				ok = s.name == cur.name+"_bucket" || s.name == cur.name+"_sum" || s.name == cur.name+"_count"
			}
			if !ok {
				return nil, fmt.Errorf("line %d: sample %s does not belong to family %s", ln, s.name, cur.name)
			}
			cur.samples = append(cur.samples, s)
		}
	}
	for _, f := range fams {
		if f.typ == "" {
			return nil, fmt.Errorf("family %s has HELP but no TYPE", f.name)
		}
		if f.typ == "counter" {
			for _, s := range f.samples {
				if s.value < 0 {
					return nil, fmt.Errorf("counter %s has negative value %g", f.name, s.value)
				}
			}
		}
		if f.typ == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// parseSampleLine parses `name{k="v",...} value`, decoding the \\, \" and \n
// label-value escapes.
func parseSampleLine(line string) (expoSample, error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return expoSample{}, fmt.Errorf("malformed sample %q", line)
	}
	s := expoSample{name: line[:i], labels: map[string]string{}}
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, "=")
			if eq <= 0 || len(rest) <= eq+1 || rest[eq+1] != '"' {
				return expoSample{}, fmt.Errorf("malformed label in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			for {
				if rest == "" {
					return expoSample{}, fmt.Errorf("unterminated label value in %q", line)
				}
				if rest[0] == '\\' {
					if len(rest) < 2 {
						return expoSample{}, fmt.Errorf("dangling escape in %q", line)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return expoSample{}, fmt.Errorf("invalid escape \\%c in %q", rest[1], line)
					}
					rest = rest[2:]
					continue
				}
				if rest[0] == '"' {
					rest = rest[1:]
					break
				}
				val.WriteByte(rest[0])
				rest = rest[1:]
			}
			s.labels[key] = val.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = strings.TrimPrefix(rest, "}")
	}
	if !strings.HasPrefix(rest, " ") {
		return expoSample{}, fmt.Errorf("missing space before value in %q", line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return expoSample{}, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.value = v
	return s, nil
}

// checkHistogram verifies the histogram contract per label set: buckets in
// ascending le order with cumulative (non-decreasing) counts, a +Inf bucket
// equal to _count, and both _sum and _count present.
func checkHistogram(f *expoFamily) error {
	type series struct {
		les, counts      []float64
		sum, count       float64
		hasSum, hasCount bool
	}
	groups := map[string]*series{}
	keyOf := func(labels map[string]string) string {
		parts := make([]string, 0, len(labels))
		for k, v := range labels {
			if k != "le" {
				parts = append(parts, k+"="+v)
			}
		}
		sort.Strings(parts)
		return strings.Join(parts, ",")
	}
	for _, s := range f.samples {
		key := keyOf(s.labels)
		g := groups[key]
		if g == nil {
			g = &series{}
			groups[key] = g
		}
		switch s.name {
		case f.name + "_bucket":
			leStr, ok := s.labels["le"]
			if !ok {
				return fmt.Errorf("%s: bucket without le label", f.name)
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				var err error
				if le, err = strconv.ParseFloat(leStr, 64); err != nil {
					return fmt.Errorf("%s: bad le %q", f.name, leStr)
				}
			}
			g.les = append(g.les, le)
			g.counts = append(g.counts, s.value)
		case f.name + "_sum":
			g.sum, g.hasSum = s.value, true
		case f.name + "_count":
			g.count, g.hasCount = s.value, true
		}
	}
	for key, g := range groups {
		if !g.hasSum || !g.hasCount {
			return fmt.Errorf("%s{%s}: missing _sum or _count", f.name, key)
		}
		if len(g.les) == 0 || !math.IsInf(g.les[len(g.les)-1], 1) {
			return fmt.Errorf("%s{%s}: missing or misplaced +Inf bucket", f.name, key)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("%s{%s}: le bounds not ascending", f.name, key)
			}
			if g.counts[i] < g.counts[i-1] {
				return fmt.Errorf("%s{%s}: bucket counts not cumulative", f.name, key)
			}
		}
		if inf := g.counts[len(g.counts)-1]; inf != g.count {
			return fmt.Errorf("%s{%s}: +Inf bucket %g != _count %g", f.name, key, inf, g.count)
		}
	}
	return nil
}

// sampleValue returns the value of the family's sample matching the label set
// exactly (0, false when absent).
func sampleValue(f *expoFamily, labels map[string]string) (float64, bool) {
	for _, s := range f.samples {
		if len(s.labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.value, true
		}
	}
	return 0, false
}

// sumSamples totals every sample of a family whose name matches (for
// histogram families pass e.g. name+"_count").
func sumSamples(f *expoFamily, name string) float64 {
	total := 0.0
	for _, s := range f.samples {
		if s.name == name {
			total += s.value
		}
	}
	return total
}

// scrapeMetrics fetches and validates GET /metrics.
func scrapeMetrics(t testing.TB, ts *httptest.Server) map[string]*expoFamily {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text format 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := parseExposition(string(raw))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, raw)
	}
	return fams
}

// scrapeUntil polls /metrics until check passes (observer callbacks fire just
// after the HTTP response is written, so counters may trail a client by a
// scheduling instant).
func scrapeUntil(t testing.TB, ts *httptest.Server, check func(map[string]*expoFamily) error) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := check(scrapeMetrics(t, ts))
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never converged: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsExpositionContract drives every instrument at least once and
// validates the whole exposition plus a handful of exact values.
func TestMetricsExpositionContract(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	seedDataset(t, ts, "census", "census", 200)

	// Two identical sync runs: the first executes, the second is a cache hit.
	for i := 0; i < 2; i++ {
		if status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize",
			map[string]any{"dataset": "census", "k": 5}); status != http.StatusOK {
			t.Fatalf("anonymize %d: %d %v", i, status, body)
		}
	}
	// One async job with a different k, forcing a fresh run.
	status, body := doJSON(t, "POST", ts.URL+"/v1/jobs", map[string]any{"dataset": "census", "k": 7})
	if status != http.StatusAccepted {
		t.Fatalf("submit job: %d %v", status, body)
	}
	if final := pollJob(t, ts, body["id"].(string)); final["state"] != "succeeded" {
		t.Fatalf("job: %v", final)
	}
	// One 404 for the unmatched-route label (the mux's plain-text not-found).
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope: %d", resp.StatusCode)
	}

	want := []string{
		"ppdp_http_requests_total", "ppdp_http_request_duration_seconds",
		"ppdp_http_in_flight_requests", "ppdp_run_duration_seconds", "ppdp_runs_total",
		"ppdp_jobs_total", "ppdp_jobs_queue_wait_seconds", "ppdp_jobs_queued",
		"ppdp_jobs_running", "ppdp_registry_datasets", "ppdp_registry_releases",
		"ppdp_registry_policies", "ppdp_cache_hits_total", "ppdp_cache_misses_total",
		"ppdp_cache_evictions_total", "ppdp_cache_entries", "ppdp_cache_capacity",
		"ppdp_reconcile_specs", "ppdp_reconcile_success_total", "ppdp_reconcile_noop_total",
		"ppdp_reconcile_errors_total", "ppdp_reconcile_retries_total", "ppdp_reconcile_lag",
		"ppdp_uptime_seconds",
	}
	scrapeUntil(t, ts, func(fams map[string]*expoFamily) error {
		for _, name := range want {
			if fams[name] == nil {
				return fmt.Errorf("family %s missing", name)
			}
		}
		// Two executed runs (sync miss + job), one cache hit.
		if v, _ := sampleValue(fams["ppdp_runs_total"],
			map[string]string{"algorithm": "mondrian", "outcome": "success"}); v != 2 {
			return fmt.Errorf("runs_total{mondrian,success} = %g, want 2", v)
		}
		if v, _ := sampleValue(fams["ppdp_cache_hits_total"], nil); v != 1 {
			return fmt.Errorf("cache_hits_total = %g, want 1", v)
		}
		// All three requests became succeeded jobs (cache hits included).
		if v, _ := sampleValue(fams["ppdp_jobs_total"], map[string]string{"state": "succeeded"}); v != 3 {
			return fmt.Errorf("jobs_total{succeeded} = %g, want 3", v)
		}
		// The histogram observed exactly the executed runs.
		if c := sumSamples(fams["ppdp_run_duration_seconds"], "ppdp_run_duration_seconds_count"); c != 2 {
			return fmt.Errorf("run_duration count = %g, want 2", c)
		}
		// 404s land on the bounded "unmatched" route label.
		if v, _ := sampleValue(fams["ppdp_http_requests_total"],
			map[string]string{"route": "unmatched", "status": "404"}); v < 1 {
			return fmt.Errorf("no unmatched/404 request recorded")
		}
		if v, _ := sampleValue(fams["ppdp_registry_datasets"], nil); v != 1 {
			return fmt.Errorf("registry_datasets = %g, want 1", v)
		}
		// No release specs were declared: the reconcile families expose but
		// sit at zero.
		if v, _ := sampleValue(fams["ppdp_reconcile_specs"], nil); v != 0 {
			return fmt.Errorf("reconcile_specs = %g, want 0", v)
		}
		return nil
	})
}

// TestMetricsHealthzConsistency hammers anonymize, jobs, snapshots, metrics
// and healthz concurrently (run with -race), then proves the scraped
// exposition agrees with /healthz — including the storage block — and with
// the exact operation counts the test performed. The server runs on a data
// directory so the ppdp_store_* families are registered and checkpoints race
// against journaled writes.
func TestMetricsHealthzConsistency(t *testing.T) {
	ts, _ := bootPersistent(t, Config{JobWorkers: 2, DataDir: t.TempDir()})
	seedDataset(t, ts, "census", "census", 300)

	// A reconciler spec rides along: "feed" grows by two appends while the
	// hammer runs, so ppdp_reconcile_* counters move under the same load the
	// consistency checks run against. Settling generation 1 before the hammer
	// starts pins the reconciliation count: one publish per generation, three
	// in total.
	chunks := censusChunks(t, 150, 200, 250)
	if status, body := sendCSV(t, "PUT", ts.URL+"/v1/datasets/feed?family=census", chunks[0]); status != http.StatusCreated {
		t.Fatalf("upload feed: %d %v", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"name": "live", "dataset": "feed", "algorithm": "mondrian", "k": 4}); status != http.StatusCreated {
		t.Fatalf("create spec: %d %v", status, body)
	}
	pollSpec(t, ts, "live", specSettled(1))

	const (
		goroutines = 4
		iters      = 5
		asyncJobs  = 4
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, chunk := range chunks[1:] {
			if status, body := sendCSV(t, "POST", ts.URL+"/v1/datasets/feed/rows", chunk); status != http.StatusOK {
				t.Errorf("append %d: %d %v", i+1, status, body)
				return
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				status, body := doJSON(t, "GET", ts.URL+"/v1/specs/live", nil)
				if status != http.StatusOK {
					t.Errorf("poll spec: %d %v", status, body)
					return
				}
				if specSettled(2 + i)(body) {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("spec never reconciled generation %d: %v", 2+i, body)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Two distinct specs across the pool: plenty of both cache
				// hits and fresh runs.
				spec := map[string]any{"dataset": "census", "algorithm": "mondrian", "k": 3 + g%2}
				if status, body := doJSON(t, "POST", ts.URL+"/v1/anonymize", spec); status != http.StatusOK {
					t.Errorf("anonymize: %d %v", status, body)
				}
				scrapeMetrics(t, ts) // must stay valid mid-load
				if status, _ := doJSON(t, "GET", ts.URL+"/healthz", nil); status != http.StatusOK {
					t.Errorf("healthz under load: %d", status)
				}
			}
		}(g)
	}
	// Checkpoints contend with journaled writes for the store lock; they
	// must never wedge or corrupt the exposition.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if status, body := doJSON(t, "POST", ts.URL+"/v1/snapshot", nil); status != http.StatusOK {
				t.Errorf("snapshot under load: %d %v", status, body)
			}
		}
	}()
	ids := make([]string, 0, asyncJobs)
	var idMu sync.Mutex
	for j := 0; j < asyncJobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			status, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
				map[string]any{"dataset": "census", "k": 11 + j}) // distinct: always fresh runs
			if status != http.StatusAccepted {
				t.Errorf("submit job %d: %d %v", j, status, body)
				return
			}
			idMu.Lock()
			ids = append(ids, body["id"].(string))
			idMu.Unlock()
		}(j)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		if final := pollJob(t, ts, id); final["state"] != "succeeded" {
			t.Fatalf("job %s: %v", id, final)
		}
	}

	totalOps := float64(goroutines*iters + asyncJobs)
	scrapeUntil(t, ts, func(fams map[string]*expoFamily) error {
		_, hz := doJSON(t, "GET", ts.URL+"/healthz", nil)
		num := func(key string) float64 { v, _ := hz[key].(float64); return v }
		gauge := func(name string) float64 { v, _ := sampleValue(fams[name], nil); return v }

		// /healthz and the scrape must agree on every shared quantity.
		pairs := []struct {
			hzKey string
			fam   string
		}{
			{"datasets", "ppdp_registry_datasets"},
			{"releases", "ppdp_registry_releases"},
			{"policies", "ppdp_registry_policies"},
			{"jobs_queued", "ppdp_jobs_queued"},
			{"jobs_running", "ppdp_jobs_running"},
		}
		for _, p := range pairs {
			if num(p.hzKey) != gauge(p.fam) {
				return fmt.Errorf("healthz %s = %g but %s = %g", p.hzKey, num(p.hzKey), p.fam, gauge(p.fam))
			}
		}
		cache, _ := hz["cache"].(map[string]any)
		if cache == nil {
			return fmt.Errorf("healthz has no cache block: %v", hz)
		}
		cnum := func(key string) float64 { v, _ := cache[key].(float64); return v }
		for hzKey, fam := range map[string]string{
			"hits": "ppdp_cache_hits_total", "misses": "ppdp_cache_misses_total",
			"evictions": "ppdp_cache_evictions_total", "entries": "ppdp_cache_entries",
			"capacity": "ppdp_cache_capacity",
		} {
			if cnum(hzKey) != gauge(fam) {
				return fmt.Errorf("healthz cache %s = %g but %s = %g", hzKey, cnum(hzKey), fam, gauge(fam))
			}
		}
		storage, _ := hz["storage"].(map[string]any)
		if storage == nil {
			return fmt.Errorf("healthz has no storage block: %v", hz)
		}
		snum := func(key string) float64 { v, _ := storage[key].(float64); return v }
		for hzKey, fam := range map[string]string{
			"generation":        "ppdp_store_generation",
			"wal_bytes":         "ppdp_store_wal_bytes",
			"wal_records":       "ppdp_store_wal_records",
			"wal_fsyncs":        "ppdp_store_wal_fsyncs_total",
			"checkpoint_errors": "ppdp_store_checkpoint_errors_total",
			"recovered_records": "ppdp_store_recovered_records",
			"mapped_tables":     "ppdp_store_mapped_tables",
			"mapped_bytes":      "ppdp_store_mapped_bytes",
			"table_files":       "ppdp_store_table_files",
			"table_bytes":       "ppdp_store_table_bytes",
		} {
			if snum(hzKey) != gauge(fam) {
				return fmt.Errorf("healthz storage %s = %g but %s = %g", hzKey, snum(hzKey), fam, gauge(fam))
			}
		}
		// The fsync histogram observed every journal append and checkpoint
		// the store fsynced; its count can only trail the WAL fsync counter
		// if an observation were lost.
		if c := sumSamples(fams["ppdp_store_wal_fsync_seconds"], "ppdp_store_wal_fsync_seconds_count"); c < gauge("ppdp_store_wal_fsyncs_total") {
			return fmt.Errorf("fsync histogram count %g < wal_fsyncs_total %g", c, gauge("ppdp_store_wal_fsyncs_total"))
		}
		recon, _ := hz["reconcile"].(map[string]any)
		if recon == nil {
			return fmt.Errorf("healthz has no reconcile block: %v", hz)
		}
		rnum := func(key string) float64 { v, _ := recon[key].(float64); return v }
		for hzKey, fam := range map[string]string{
			"specs": "ppdp_reconcile_specs", "success": "ppdp_reconcile_success_total",
			"noop": "ppdp_reconcile_noop_total", "errors": "ppdp_reconcile_errors_total",
			"retries": "ppdp_reconcile_retries_total", "generation_lag": "ppdp_reconcile_lag",
		} {
			if rnum(hzKey) != gauge(fam) {
				return fmt.Errorf("healthz reconcile %s = %g but %s = %g", hzKey, rnum(hzKey), fam, gauge(fam))
			}
		}
		// The feed settled each generation before the next append, so the
		// reconciler ran exactly once per generation and ended fully caught
		// up, with no failures and no fingerprint short-circuits.
		if v := gauge("ppdp_reconcile_specs"); v != 1 {
			return fmt.Errorf("reconcile_specs = %g, want 1", v)
		}
		reconRuns := gauge("ppdp_reconcile_success_total") + gauge("ppdp_reconcile_errors_total")
		if reconRuns != 3 || gauge("ppdp_reconcile_errors_total") != 0 {
			return fmt.Errorf("reconcile success+errors = %g (errors %g), want 3 clean runs",
				reconRuns, gauge("ppdp_reconcile_errors_total"))
		}
		if v := gauge("ppdp_reconcile_lag"); v != 0 {
			return fmt.Errorf("reconcile_lag = %g, want 0", v)
		}

		// Exact operation accounting: every anonymize op either executed a
		// run or hit the cache, every op finished as a succeeded job, and the
		// histograms observed exactly the executed runs. Reconciliation runs
		// ride the same executor (they finish as succeeded jobs and wait in
		// the same queue) but deliberately stay out of ppdp_runs_total and
		// the run-duration histogram, which meter client-billable work.
		runs := sumSamples(fams["ppdp_runs_total"], "ppdp_runs_total")
		hits := gauge("ppdp_cache_hits_total")
		if runs+hits != totalOps {
			return fmt.Errorf("runs %g + cache hits %g != %g operations", runs, hits, totalOps)
		}
		if v, _ := sampleValue(fams["ppdp_jobs_total"], map[string]string{"state": "succeeded"}); v != totalOps+reconRuns {
			return fmt.Errorf("jobs_total{succeeded} = %g, want %g client ops + %g reconciliations", v, totalOps, reconRuns)
		}
		if c := sumSamples(fams["ppdp_run_duration_seconds"], "ppdp_run_duration_seconds_count"); c != runs {
			return fmt.Errorf("run_duration count %g != runs_total %g", c, runs)
		}
		if c := sumSamples(fams["ppdp_jobs_queue_wait_seconds"], "ppdp_jobs_queue_wait_seconds_count"); c != runs+reconRuns {
			return fmt.Errorf("queue_wait count %g != runs %g + reconciliations %g (one dispatch per executed job)", c, runs, reconRuns)
		}
		// Request accounting by route: all jobs, sync anonymize calls, and
		// the spec/append rides.
		if v, _ := sampleValue(fams["ppdp_http_requests_total"],
			map[string]string{"route": "POST /v1/anonymize", "status": "200"}); v != float64(goroutines*iters) {
			return fmt.Errorf("anonymize 200s = %g, want %d", v, goroutines*iters)
		}
		if v, _ := sampleValue(fams["ppdp_http_requests_total"],
			map[string]string{"route": "POST /v1/jobs", "status": "202"}); v != float64(asyncJobs) {
			return fmt.Errorf("job 202s = %g, want %d", v, asyncJobs)
		}
		if v, _ := sampleValue(fams["ppdp_http_requests_total"],
			map[string]string{"route": "POST /v1/datasets/{name}/rows", "status": "200"}); v != 2 {
			return fmt.Errorf("append 200s = %g, want 2", v)
		}
		if v, _ := sampleValue(fams["ppdp_http_requests_total"],
			map[string]string{"route": "POST /v1/specs", "status": "201"}); v != 1 {
			return fmt.Errorf("spec 201s = %g, want 1", v)
		}
		return nil
	})
}

// TestRegisterStatsOneSnapshotPerScrape renders two sources registered
// through registerStats: each must be snapshotted once per render, and each
// family must render its own field of the snapshot.
func TestRegisterStatsOneSnapshotPerScrape(t *testing.T) {
	type stats struct{ hits, size int }
	calls := map[string]int{}
	r := obsmetrics.NewRegistry()
	for i, name := range []string{"alpha", "beta"} {
		registerStats(r, func() stats {
			calls[name]++
			return stats{hits: 10*i + 1, size: 10*i + 2}
		}, []statFamily[stats]{
			{"test_" + name + "_hits_total", "Hits.", true, func(st stats) float64 { return float64(st.hits) }},
			{"test_" + name + "_size", "Size.", false, func(st stats) float64 { return float64(st.size) }},
		})
	}
	var out strings.Builder
	r.WriteText(&out)
	want := "# HELP test_alpha_hits_total Hits.\n# TYPE test_alpha_hits_total counter\ntest_alpha_hits_total 1\n" +
		"# HELP test_alpha_size Size.\n# TYPE test_alpha_size gauge\ntest_alpha_size 2\n" +
		"# HELP test_beta_hits_total Hits.\n# TYPE test_beta_hits_total counter\ntest_beta_hits_total 11\n" +
		"# HELP test_beta_size Size.\n# TYPE test_beta_size gauge\ntest_beta_size 12\n"
	if out.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", out.String(), want)
	}
	if calls["alpha"] != 1 || calls["beta"] != 1 {
		t.Fatalf("snapshots per source in one scrape = %v, want 1 each", calls)
	}
}

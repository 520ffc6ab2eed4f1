// Package server implements `ppdp serve`: a long-running HTTP anonymization
// service over the core release pipeline.
//
// The service keeps a concurrent in-memory registry of named datasets —
// uploaded as CSV or generated from the synthetic census/hospital families —
// and of the releases produced from them. Clients anonymize a dataset with
// any of the seven algorithms either synchronously through POST /v1/anonymize
// or as a background job through POST /v1/jobs, passing per-request privacy
// parameters (k, l, t, diversity mode, suppression budget), and read risk and
// utility reports for stored releases through GET endpoints.
//
// Execution model: both request paths share one executor — the jobs manager
// (internal/jobs), a bounded worker pool behind a FIFO admission queue. POST
// /v1/jobs submits and returns 202 with a job id; clients poll GET
// /v1/jobs/{id} for state, live progress (the engine's per-algorithm sinks)
// and queue position, cancel with DELETE, and fetch the published release
// once the job succeeds. The synchronous /v1/anonymize handler submits to the
// same queue and waits, so a single admission policy governs the whole
// service: when the queue is full both paths reject with 429 and a
// Retry-After header instead of accepting unbounded concurrent work.
//
// Concurrency model: the registry is guarded by a single RWMutex and handlers
// hold it only for lookups and stores, never while an algorithm runs.
// Config.JobWorkers bounds how many anonymization runs execute at once and
// Config.Workers bounds the internal worker pools of one run (Mondrian's
// partition recursion, Incognito's lattice layers, TopDown's candidate
// evaluation), so the machine is shared fairly at both levels. Every run's
// context — derived from the HTTP request on the synchronous path, from the
// job lifecycle on the asynchronous one — is polled by the algorithm at its
// natural unit of work, so cancellation and the Config.RequestTimeout
// deadline shed work promptly without publishing partial releases.
//
// Every error response is a JSON envelope {"error":{"code":...,
// "message":...}} with a machine-readable code; /healthz reports liveness,
// registry occupancy and executor load for load balancers.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/jobs"
	"github.com/ppdp/ppdp/internal/reconcile"
	"github.com/ppdp/ppdp/internal/resultcache"
	"github.com/ppdp/ppdp/internal/store"
)

// Config tunes a Server. The zero value is usable: it listens on :8080,
// bounds request bodies at 32 MiB, times anonymize requests out after 60
// seconds and sizes the Mondrian pool by GOMAXPROCS.
type Config struct {
	// Addr is the listen address for ListenAndServe (":8080" when empty).
	Addr string
	// Workers bounds the per-request internal parallelism: the algorithms'
	// worker pools (Mondrian's partition recursion, the lattice searches)
	// and the chunked table-scan kernels (GroupBy, content fingerprints,
	// snapshot encoding, report metrics) on stored and released tables;
	// zero uses GOMAXPROCS. A service handling many concurrent requests
	// should set this low (1 or 2) and let request-level parallelism fill
	// the CPUs.
	Workers int
	// RequestTimeout sets the deadline of one anonymize request (60s when
	// zero). Clients may ask for less via timeout_ms but never for more.
	// Every algorithm observes the deadline mid-run — each polls the context
	// at its natural unit of work (Mondrian per partition subtree, the
	// lattice searches per node, clustering per cluster, ...), so a timed-out
	// run stops within one unit of work of the deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies, notably CSV uploads (32 MiB when
	// zero).
	MaxBodyBytes int64
	// JobWorkers bounds how many anonymization runs execute concurrently on
	// the shared executor behind /v1/anonymize and /v1/jobs (GOMAXPROCS when
	// zero). Together with QueueDepth it is the service's admission control.
	JobWorkers int
	// QueueDepth bounds the runs waiting for a free worker (64 when zero). A
	// full queue rejects both request paths with 429 and a Retry-After
	// header.
	QueueDepth int
	// JobTTL is how long finished jobs stay pollable on GET /v1/jobs/{id}
	// (15 minutes when zero). Published releases outlive their job.
	JobTTL time.Duration
	// CacheSize bounds the cross-request result cache: identical anonymize
	// requests (same dataset content, canonical policy, algorithm and
	// parameters) are answered from a memoized release without queueing work.
	// Zero uses DefaultCacheSize entries; negative disables caching. Requests
	// opt out individually with "no_cache".
	CacheSize int
	// APIKeys maps API keys to tenant names (`serve -api-keys`). When empty
	// the service runs unauthenticated and every request shares the ""
	// tenant; when set, requests must present a known key via Authorization:
	// Bearer or X-API-Key (except /healthz and /metrics, which stay open for
	// infrastructure).
	APIKeys map[string]string
	// TenantRate throttles each tenant to this many requests per second
	// (token bucket; zero disables rate limiting). In unauthenticated mode
	// the single "" tenant makes this a global limit.
	TenantRate float64
	// TenantBurst is the rate limiter's bucket size (defaults to
	// max(1, ceil(TenantRate)) when zero).
	TenantBurst int
	// TenantMaxDatasets caps how many datasets one tenant may store (zero
	// disables the quota).
	TenantMaxDatasets int
	// TenantMaxJobs caps one tenant's admitted jobs — queued plus running —
	// on the shared executor (zero disables the quota).
	TenantMaxJobs int
	// Now is the clock the rate limiter uses (time.Now when nil); tests
	// inject a deterministic one.
	Now func() time.Time
	// Log receives one line per request; nil disables request logging.
	Log *log.Logger
	// DataDir, when set, makes the registry durable: every mutation is
	// journaled to a write-ahead log under this directory before it is
	// acknowledged, table contents are stored as content-addressed columnar
	// snapshots served through zero-copy mmap views, and Open recovers the
	// full registry from the directory on boot. Empty keeps the registry
	// purely in memory (the historical behavior). Only Open honors it; New
	// ignores DataDir entirely.
	DataDir string
	// MaxDatasets, MaxReleases and MaxPolicies cap registry occupancy
	// (128/1024/256 when zero — see the Default* constants). `ppdp serve`
	// exposes them as -max-datasets/-max-releases/-max-policies.
	MaxDatasets int
	MaxReleases int
	MaxPolicies int
	// ReconcileBackoff and ReconcileBackoffMax tune the release reconciler's
	// retry schedule after a failed reconciliation (500ms doubling to 1m when
	// zero). Tests set them low for fast convergence.
	ReconcileBackoff    time.Duration
	ReconcileBackoffMax time.Duration
}

// Defaults for the zero Config.
const (
	DefaultAddr           = ":8080"
	DefaultRequestTimeout = 60 * time.Second
	DefaultMaxBodyBytes   = 32 << 20
	DefaultQueueDepth     = jobs.DefaultQueueDepth
	DefaultJobTTL         = jobs.DefaultTTL
	DefaultCacheSize      = 64
)

// Server is the ppdp anonymization service. Create one with New; it is ready
// to serve via Handler (for tests and embedding) or ListenAndServe. Close
// releases the executor when the server is used without Serve.
type Server struct {
	cfg     Config
	reg     *registry
	jobs    *jobs.Manager
	cache   *resultcache.Cache // nil when caching is disabled
	metrics *serverMetrics
	mux     *http.ServeMux
	started time.Time
	// recon keeps release specs continuously reconciled with their datasets.
	recon *reconcile.Manager
	// store is the durable registry state (nil without Config.DataDir).
	store *store.Store

	// runGate, when non-nil, is called at the start of every executor run
	// with the run's context. It exists for the tests, which use it to pin a
	// job in the running state deterministically (the internal/testctx
	// spirit: no sleeps, no wall-clock races); production servers never set
	// it.
	runGate func(ctx context.Context)
}

// New builds a Server with an empty registry and starts its executor pool.
func New(cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = DefaultAddr
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	s := &Server{cfg: cfg, reg: newRegistry(cfg.MaxDatasets, cfg.MaxReleases, cfg.MaxPolicies), started: time.Now()}
	if cfg.CacheSize >= 0 {
		size := cfg.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		s.cache = resultcache.New(size)
	}
	// The metrics inventory registers before the executor starts: its
	// occupancy gauges collect from s.jobs lazily at scrape time, and the
	// manager's Observer hook feeds the queue-wait histogram and lifecycle
	// counters.
	s.metrics = newServerMetrics(s)
	s.jobs = jobs.New(jobs.Config{
		Workers:      cfg.JobWorkers,
		QueueDepth:   cfg.QueueDepth,
		MaxPerTenant: cfg.TenantMaxJobs,
		TTL:          cfg.JobTTL,
		Observer:     s.metrics,
	})
	var reconLogf func(string, ...any)
	if cfg.Log != nil {
		reconLogf = cfg.Log.Printf
	}
	s.recon = reconcile.New(reconcile.Config{
		Engine:      reconEngine{s},
		BackoffBase: cfg.ReconcileBackoff,
		BackoffMax:  cfg.ReconcileBackoffMax,
		Logf:        reconLogf,
	})
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Open builds a Server like New and, when Config.DataDir is set, attaches
// the durable store: the directory's latest checkpoint manifest is loaded,
// the write-ahead log replayed over it (truncating a torn final record if
// the previous process died mid-append), and the full registry — datasets,
// releases, policies — recovered with every table served as a zero-copy mmap
// view of its columnar snapshot. Open refuses to start on damaged
// acknowledged history (a corrupt interior WAL record, a missing or
// unverifiable table snapshot) rather than serving partial state; point
// DataDir at a copied snapshot directory to restore from backup. With an
// empty DataDir, Open is exactly New.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	st, err := store.Open(cfg.DataDir, store.Options{
		OnFsync: func(d time.Duration) {
			if h := s.metrics.storeFsync; h != nil {
				h.Observe(d.Seconds())
			}
		},
	})
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("server: open data dir %s: %w", cfg.DataDir, err)
	}
	if err := s.recover(st); err != nil {
		st.Close()
		s.Close()
		return nil, err
	}
	s.store = st
	s.reg.st = st
	s.metrics.registerStore(s)
	// Recovered specs re-enter the control loop: one whose dataset moved while
	// the server was down (or whose last reconciliation never landed) starts
	// catching up immediately.
	s.trackRecoveredSpecs()
	if cfg.Log != nil {
		stats := st.Stats()
		cfg.Log.Printf("ppdp serve: recovered %d datasets, %d releases, %d policies, %d specs from %s in %.3fs (wal records=%d torn=%v)",
			stats.Datasets, stats.Releases, stats.Policies, stats.Specs, cfg.DataDir,
			stats.RecoverySeconds, stats.RecoveredRecords, stats.RecoveredTorn)
	}
	return s, nil
}

// Close stops the shared executor — queued jobs are canceled, running jobs
// have their contexts canceled, and Close returns once the pool drains —
// then releases the durable store (WAL handle and table mappings) if one is
// attached. Serve calls it on shutdown; embedders that only use Handler call
// it themselves.
func (s *Server) Close() {
	// The reconciler stops first so no new reconciliations reach the executor;
	// its Close only waits for enqueue handoffs, not for the runs themselves,
	// which the executor's Close below drains.
	s.recon.Close()
	s.jobs.Close()
	if s.store != nil {
		s.store.Close()
	}
}

// scanWorkers resolves Config.Workers for the chunked table-scan kernels
// (content fingerprints, GroupBy-backed reports, snapshot encoding) with
// the same semantics core uses: zero means GOMAXPROCS. Stored dataset
// tables get the bound at creation and recovery; released tables inherit it
// from the run (see core.AnonymizeContext).
func (s *Server) scanWorkers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// HasDataset reports whether a dataset is registered under name. `ppdp serve
// -preload` uses it to skip re-seeding a name already recovered from
// -data-dir.
func (s *Server) HasDataset(name string) bool {
	_, err := s.reg.getDataset(name)
	return err == nil
}

// RouteDoc documents one registered endpoint: its method-qualified pattern
// and a one-line summary. The table below is the single source for both the
// mux registrations and the generated docs/API.md route reference (see
// cmd/apidocs), so the documentation cannot list a route the server does not
// serve or miss one it does.
type RouteDoc struct {
	Pattern string
	Summary string
}

// routeTable wires pattern + summary + handler together. Handlers are method
// expressions so the table can live at package level.
var routeTable = []struct {
	RouteDoc
	handler func(*Server, http.ResponseWriter, *http.Request)
}{
	{RouteDoc{"GET /healthz", "liveness, registry occupancy and executor load"}, (*Server).handleHealthz},
	{RouteDoc{"GET /metrics", "Prometheus text exposition: request/run latency histograms, queue depth and wait, job lifecycle counters, registry and cache occupancy"}, (*Server).handleMetrics},
	{RouteDoc{"GET /v1/algorithms", "capability cards of every registered algorithm, including supported policy criteria"}, (*Server).handleAlgorithms},
	{RouteDoc{"POST /v1/datasets", "generate a synthetic census/hospital dataset under a registry name"}, (*Server).handleGenerateDataset},
	{RouteDoc{"PUT /v1/datasets/{name}", "upload a CSV dataset (create-or-replace; ?family= selects the schema; replacing a spec-watched dataset triggers reconciliation)"}, (*Server).handleUploadDataset},
	{RouteDoc{"POST /v1/datasets/{name}/rows", "append CSV rows to a stored dataset (schema must match; bumps the dataset generation and triggers spec reconciliation)"}, (*Server).handleAppendRows},
	{RouteDoc{"GET /v1/datasets", "list stored datasets"}, (*Server).handleListDatasets},
	{RouteDoc{"GET /v1/datasets/{name}", "dataset metadata; a row page with ?limit/?offset; streamed CSV under Accept: text/csv"}, (*Server).handleGetDataset},
	{RouteDoc{"DELETE /v1/datasets/{name}", "delete a dataset (409 while ad-hoc releases reference it or release specs watch it — delete those first)"}, (*Server).handleDeleteDataset},
	{RouteDoc{"POST /v1/policies", "store a named privacy policy (canonicalized, immutable)"}, (*Server).handleCreatePolicy},
	{RouteDoc{"GET /v1/policies", "list stored policies"}, (*Server).handleListPolicies},
	{RouteDoc{"GET /v1/policies/{name}", "fetch one stored policy in canonical form"}, (*Server).handleGetPolicy},
	{RouteDoc{"DELETE /v1/policies/{name}", "delete a stored policy (runs keep their pinned snapshots)"}, (*Server).handleDeletePolicy},
	{RouteDoc{"POST /v1/snapshot", "checkpoint the durable store: fold the WAL into a fresh manifest generation so the data directory is a consistent copyable backup (requires -data-dir)"}, (*Server).handleSnapshot},
	{RouteDoc{"POST /v1/anonymize", "anonymize synchronously; criteria via policy, policy_ref or deprecated flat params"}, (*Server).handleAnonymize},
	{RouteDoc{"POST /v1/jobs", "submit a background anonymization (202 + Location; same request body as /v1/anonymize)"}, (*Server).handleSubmitJob},
	{RouteDoc{"GET /v1/jobs", "list jobs (summaries: no result payloads or policy documents)"}, (*Server).handleListJobs},
	{RouteDoc{"GET /v1/jobs/{id}", "job detail: state, live progress, queue position, policy, result"}, (*Server).handleGetJob},
	{RouteDoc{"DELETE /v1/jobs/{id}", "cancel a queued or running job (409 when already finished)"}, (*Server).handleCancelJob},
	{RouteDoc{"POST /v1/specs", "declare a release spec: the reconciler keeps a release of the dataset continuously published under the pinned policy (same body as /v1/anonymize plus a name)"}, (*Server).handleCreateSpec},
	{RouteDoc{"GET /v1/specs", "list release specs (summaries: no policy documents)"}, (*Server).handleListSpecs},
	{RouteDoc{"GET /v1/specs/{name}", "spec detail: declaration, current release id, reconciler state (idle/running/backoff), generation lag, m-invariance history"}, (*Server).handleGetSpec},
	{RouteDoc{"DELETE /v1/specs/{name}", "delete a spec and the release it owns"}, (*Server).handleDeleteSpec},
	{RouteDoc{"GET /v1/releases", "list stored releases"}, (*Server).handleListReleases},
	{RouteDoc{"GET /v1/releases/{id}", "release metadata: algorithm, canonical policy, per-criterion measurements"}, (*Server).handleGetRelease},
	{RouteDoc{"DELETE /v1/releases/{id}", "delete a stored release, unpinning its dataset (409 spec_pinned for spec-owned releases — delete the spec instead)"}, (*Server).handleDeleteRelease},
	{RouteDoc{"GET /v1/releases/{id}/data", "streamed CSV rows (default); a JSON row page with ?limit/?offset under Accept: application/json; ?table=qit|st for anatomy"}, (*Server).handleReleaseData},
	{RouteDoc{"GET /v1/releases/{id}/risk", "re-identification and attribute-disclosure risk report (?threshold=)"}, (*Server).handleReleaseRisk},
	{RouteDoc{"GET /v1/releases/{id}/utility", "utility report against the pinned dataset snapshot (?k=)"}, (*Server).handleReleaseUtility},
}

// RouteDocs returns every registered endpoint's pattern and summary in
// registration order — the route reference cmd/apidocs renders.
func RouteDocs() []RouteDoc {
	out := make([]RouteDoc, len(routeTable))
	for i, rt := range routeTable {
		out[i] = rt.RouteDoc
	}
	return out
}

// routes wires every endpoint from the route table. Method-qualified
// patterns (Go 1.22 ServeMux) give free 405s for wrong methods.
func (s *Server) routes() {
	for _, rt := range routeTable {
		handler := rt.handler
		s.mux.HandleFunc(rt.Pattern, func(w http.ResponseWriter, r *http.Request) {
			handler(s, w, r)
		})
	}
}

// Handler returns the service's HTTP handler with the full middleware chain
// applied, outermost first: instrument (metrics + access log), authenticate
// (API keys → tenant), rateLimit (per-tenant token bucket) and limitBody.
// Tests mount it on httptest.Server; ListenAndServe uses it too.
func (s *Server) Handler() http.Handler {
	var h http.Handler = s.mux
	h = s.limitBody(h)
	h = s.rateLimit(h)
	h = s.authenticate(h)
	h = s.instrument(h)
	return h
}

// ListenAndServe runs the service until ctx is canceled, then drains with a
// graceful shutdown. It returns nil after a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Shutdown pacing: quick requests get shutdownGrace to drain normally; then
// in-flight request contexts are canceled so long anonymize runs shed through
// their cancellation path, well inside the shutdownBudget Shutdown waits.
const (
	shutdownGrace  = 5 * time.Second
	shutdownBudget = 15 * time.Second
)

// Serve runs the service on an existing listener until ctx is canceled.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// The executor outlives every request but not the server: once HTTP
	// shutdown completes (or serving fails), cancel whatever still runs.
	defer s.Close()
	// Request contexts derive from baseCtx, not from ctx directly: shutdown
	// must first let in-flight work drain, and only cancel it after the
	// grace period — deriving from ctx would kill every request the moment
	// the signal arrives.
	baseCtx, cancelRequests := context.WithCancel(context.Background())
	defer cancelRequests()
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if s.cfg.Log != nil {
		s.cfg.Log.Printf("ppdp serve: listening on %s", ln.Addr())
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		grace := time.AfterFunc(shutdownGrace, cancelRequests)
		defer grace.Stop()
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownBudget)
		defer cancel()
		return hs.Shutdown(shutCtx)
	}
}

// limitBody caps every request body at Config.MaxBodyBytes.
func (s *Server) limitBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// statusRecorder captures the response status code and body size for the
// access log and the HTTP metrics. The zero status means the handler never
// called WriteHeader, which net/http commits as an implicit 200 on the first
// Write.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// instrument is the outermost middleware: it injects the requestInfo holder
// (filled in by authenticate further down the chain), records the HTTP
// metrics — request count and latency by route pattern and status, in-flight
// gauge — and emits the access log line from the same measurements, so the
// log and the metrics can never disagree about a request. The route label is
// the mux's registered pattern, not the raw path, keeping the label
// cardinality bounded by the route table.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r, info := withRequestInfo(r)
		s.metrics.httpInFlight.Inc()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		s.metrics.httpInFlight.Dec()
		status := rec.status
		if status == 0 {
			// Handler wrote nothing at all; net/http sends an implicit 200.
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		route := s.routePattern(r)
		s.metrics.httpRequests.With(route, strconv.Itoa(status)).Inc()
		s.metrics.httpLatency.With(route).Observe(elapsed.Seconds())
		if s.cfg.Log != nil {
			tenant := info.tenant
			if tenant == "" {
				tenant = "-"
			}
			s.cfg.Log.Printf("%s %s %d %s %dB tenant=%s",
				r.Method, r.URL.Path, status, elapsed.Round(time.Microsecond), rec.bytes, tenant)
		}
	})
}

// routePattern returns the mux pattern that serves a request ("unmatched"
// for 404s), the bounded-cardinality route label of the HTTP metrics.
func (s *Server) routePattern(r *http.Request) string {
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		return "unmatched"
	}
	return pattern
}

// healthResponse is the /healthz body. Cache reports the result cache's
// hit/miss/eviction counters and occupancy (absent when caching is disabled);
// Storage reports the durable store's health (absent without -data-dir).
type healthResponse struct {
	Status      string              `json:"status"`
	Datasets    int                 `json:"datasets"`
	Releases    int                 `json:"releases"`
	Policies    int                 `json:"policies"`
	JobsQueued  int                 `json:"jobs_queued"`
	JobsRunning int                 `json:"jobs_running"`
	Reconcile   *reconcileStatsJSON `json:"reconcile,omitempty"`
	Cache       *cacheStatsJSON     `json:"cache,omitempty"`
	Storage     *storageStatsJSON   `json:"storage,omitempty"`
	UptimeSec   int64               `json:"uptime_seconds"`
	Go          string              `json:"go"`
}

// reconcileStatsJSON is the /healthz reconciler block: tracked specs, run
// outcomes and the summed generation lag.
type reconcileStatsJSON struct {
	Specs   int   `json:"specs"`
	Success int64 `json:"success"`
	Noop    int64 `json:"noop"`
	Errors  int64 `json:"errors"`
	Retries int64 `json:"retries"`
	Lag     int64 `json:"generation_lag"`
}

// storageStatsJSON is the /healthz storage block: WAL growth since the last
// checkpoint, snapshot age, what the last boot recovered, and how much table
// data is mmap-resident versus on disk.
type storageStatsJSON struct {
	Dir              string  `json:"dir"`
	Generation       int64   `json:"generation"`
	WALBytes         int64   `json:"wal_bytes"`
	WALRecords       int64   `json:"wal_records"`
	WALFsyncs        int64   `json:"wal_fsyncs"`
	SnapshotAgeSec   float64 `json:"snapshot_age_seconds"`
	CheckpointErrors int64   `json:"checkpoint_errors"`
	RecoverySec      float64 `json:"recovery_seconds"`
	RecoveredRecords int     `json:"recovered_records"`
	RecoveredTorn    bool    `json:"recovered_torn"`
	MappedTables     int     `json:"mapped_tables"`
	MappedBytes      int64   `json:"mapped_bytes"`
	TableFiles       int     `json:"table_files"`
	TableBytes       int64   `json:"table_bytes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Every number below is read through the same obsmetrics handles GET
	// /metrics renders (the function-backed gauges and counters collect from
	// the registry, the executor and the cache at call time), so /healthz and
	// a scrape can never report different values for the same quantity.
	m := s.metrics
	resp := healthResponse{
		Status:      "ok",
		Datasets:    int(m.regDatasets.Value()),
		Releases:    int(m.regReleases.Value()),
		Policies:    int(m.regPolicies.Value()),
		JobsQueued:  int(m.jobsQueued.Value()),
		JobsRunning: int(m.jobsRunning.Value()),
		Reconcile: &reconcileStatsJSON{
			Specs:   int(m.reconSpecs.Value()),
			Success: int64(m.reconSuccess.Value()),
			Noop:    int64(m.reconNoop.Value()),
			Errors:  int64(m.reconErrors.Value()),
			Retries: int64(m.reconRetries.Value()),
			Lag:     int64(m.reconLag.Value()),
		},
		UptimeSec: int64(m.uptime.Value()),
		Go:        runtime.Version(),
	}
	if m.cacheHits != nil {
		resp.Cache = &cacheStatsJSON{
			Hits:      int64(m.cacheHits.Value()),
			Misses:    int64(m.cacheMisses.Value()),
			Evictions: int64(m.cacheEvictions.Value()),
			Entries:   int(m.cacheEntries.Value()),
			Capacity:  int(m.cacheCapacity.Value()),
		}
	}
	if m.storeWALBytes != nil {
		resp.Storage = s.storageJSON()
	}
	writeJSON(w, http.StatusOK, resp)
}

// storageJSON renders the storage block through the same metric handles the
// /metrics exposition scrapes, preserving the healthz/metrics consistency
// contract for the ppdp_store_* families.
func (s *Server) storageJSON() *storageStatsJSON {
	m := s.metrics
	return &storageStatsJSON{
		Dir:              s.cfg.DataDir,
		Generation:       int64(m.storeGeneration.Value()),
		WALBytes:         int64(m.storeWALBytes.Value()),
		WALRecords:       int64(m.storeWALRecords.Value()),
		WALFsyncs:        int64(m.storeWALFsyncs.Value()),
		SnapshotAgeSec:   m.storeSnapshotAge.Value(),
		CheckpointErrors: int64(m.storeCheckpointErrs.Value()),
		RecoverySec:      m.storeRecovery.Value(),
		RecoveredRecords: int(m.storeRecoveredRecords.Value()),
		RecoveredTorn:    m.storeRecoveredTorn.Value() > 0,
		MappedTables:     int(m.storeMappedTables.Value()),
		MappedBytes:      int64(m.storeMappedBytes.Value()),
		TableFiles:       int(m.storeTableFiles.Value()),
		TableBytes:       int64(m.storeTableBytes.Value()),
	}
}

// handleSnapshot folds the WAL into a fresh checkpoint generation on demand.
// After a 200, the data directory is a consistent point-in-time image — copy
// it and point a new server's -data-dir at the copy to restore. Without
// -data-dir there is nothing to snapshot, which is the client's mistake to
// learn about, not a server fault.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusUnprocessableEntity, "no_storage",
			"persistence is disabled: start the server with -data-dir to enable snapshots")
		return
	}
	if err := s.store.Checkpoint(); err != nil {
		writeError(w, http.StatusInternalServerError, "storage", "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"storage": s.storageJSON()})
}

// errorEnvelope is the uniform JSON error body.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

// apiError carries a machine-readable code alongside the human message.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeJSON renders v with the proper content type. v is marshalled before
// the status is committed, so a value the encoder rejects becomes the 500
// error envelope rather than a success status with an empty body; write
// errors after that are I/O failures on a committed response and ignored.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "encode response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// writeError renders the JSON error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// StatusClientClosedRequest mirrors nginx's non-standard 499: the client went
// away before the anonymization finished.
const StatusClientClosedRequest = 499

// classifyAnonymizeError maps a pipeline error onto an HTTP status and
// envelope code: configuration problems are the client's fault (400), privacy
// parameters no algorithm run can meet are 422, timeouts are 504, abandoned
// or canceled runs are 499, a full release registry at publish time is 507, a
// durable-store failure while publishing is a 500 with the "storage" code,
// anything else is a 500. Algorithm failures arrive pre-classified by their
// engine adapters (engine.ErrConfig / engine.ErrUnsatisfiable), so the
// mapping needs no per-algorithm knowledge. Both the synchronous response
// path and the job-state rendering use this one table.
func classifyAnonymizeError(err error) (status int, code string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, core.ErrConfig), errors.Is(err, engine.ErrConfig):
		return http.StatusBadRequest, "bad_config"
	case errors.Is(err, engine.ErrUnsatisfiable):
		return http.StatusUnprocessableEntity, "unsatisfiable"
	case errors.Is(err, errRegistryFull):
		return http.StatusInsufficientStorage, "registry_full"
	case errors.Is(err, errPersist):
		return http.StatusInternalServerError, "storage"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeAnonymizeError renders a pipeline error as its envelope.
func writeAnonymizeError(w http.ResponseWriter, err error) {
	status, code := classifyAnonymizeError(err)
	writeError(w, status, code, "%v", err)
}

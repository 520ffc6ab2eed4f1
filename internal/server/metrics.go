package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"github.com/ppdp/ppdp/internal/jobs"
	"github.com/ppdp/ppdp/internal/obsmetrics"
	"github.com/ppdp/ppdp/internal/reconcile"
	"github.com/ppdp/ppdp/internal/resultcache"
	"github.com/ppdp/ppdp/internal/store"
)

// This file is the service's observability layer: one obsmetrics.Registry
// holding every instrument GET /metrics exposes. The function-backed
// families collect from the same sources /healthz reads — the registry, the
// executor, the reconciler, the result cache and the store — and take the
// same fields of their Stats snapshots, so a number a load balancer checks is
// the number an alerting rule scrapes.
//
// Metric inventory (all names prefixed ppdp_):
//
//	http_requests_total{route,status}     counter    requests by mux pattern + status
//	http_request_duration_seconds{route}  histogram  request latency by mux pattern
//	http_in_flight_requests               gauge      requests currently being served
//	run_duration_seconds{algorithm}       histogram  anonymization run latency
//	runs_total{algorithm,outcome}         counter    runs by outcome (success/error/canceled/timeout)
//	jobs_total{state}                     counter    job terminal transitions (succeeded/failed/canceled)
//	jobs_queue_wait_seconds               histogram  time jobs spent queued before dispatch
//	jobs_queued / jobs_running            gauge      executor occupancy (collected from the manager)
//	registry_datasets/releases/policies   gauge      registry occupancy (collected from the registry)
//	reconcile_specs                       gauge      release specs tracked by the reconciler
//	reconcile_success/noop/errors_total   counter    reconciliation runs by outcome
//	reconcile_retries_total               counter    backoff retries after failed reconciliations
//	reconcile_lag                         gauge      summed dataset-generation lag over all specs
//	cache_hits/misses/evictions_total     counter    result-cache counters (collected from the cache)
//	cache_entries / cache_capacity        gauge      result-cache occupancy
//	uptime_seconds                        gauge      seconds since server construction
//
// With -data-dir set, the durable store adds (collected from store.Stats at
// scrape time, except the fsync histogram which the store feeds per append):
//
//	store_wal_fsync_seconds               histogram  WAL append fsync latency
//	store_wal_bytes/records               gauge      WAL growth since the last checkpoint
//	store_wal_fsyncs_total                counter    WAL fsyncs performed
//	store_generation                      gauge      checkpoint generation
//	store_snapshot_age_seconds            gauge      age of the newest checkpoint manifest
//	store_checkpoint_errors_total         counter    failed automatic checkpoints
//	store_recovery_seconds                gauge      duration of the last boot's recovery
//	store_recovered_records / _torn       gauge      what the last boot replayed
//	store_mapped_tables/bytes             gauge      mmap-resident table snapshots
//	store_table_files/bytes               gauge      table snapshots on disk

// runBuckets spreads anonymization run latency: runs range from
// sub-millisecond cache-warm Datafly to multi-second Mondrian over large
// tables, wider than DefBuckets' request-latency spread.
var runBuckets = []float64{.001, .005, .01, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60}

// serverMetrics bundles the instruments the service feeds directly. It
// implements jobs.Observer so the executor feeds the queue-wait histogram and
// lifecycle counters. The function-backed families need no handle: they
// collect at scrape time.
type serverMetrics struct {
	registry *obsmetrics.Registry

	httpRequests *obsmetrics.CounterVec
	httpLatency  *obsmetrics.HistogramVec
	httpInFlight *obsmetrics.Gauge

	runLatency *obsmetrics.HistogramVec
	runsTotal  *obsmetrics.CounterVec

	jobsTotal     *obsmetrics.CounterVec
	jobsQueueWait *obsmetrics.Histogram

	// storeFsync is nil without Config.DataDir; Open registers it via
	// registerStore once the durable store is attached.
	storeFsync *obsmetrics.Histogram
}

// statFamily is one function-backed family collected from a Stats snapshot
// of type S.
type statFamily[S any] struct {
	name, help string
	counter    bool
	get        func(S) float64
}

// registerStats registers fams as one group collected from a single
// snapshot per scrape: the source keeps the authoritative counters under its
// own lock, so there is no second set to keep in sync, and one scrape locks
// it once and shows one moment of it.
func registerStats[S any](r *obsmetrics.Registry, snapshot func() S, fams []statFamily[S]) {
	names := make([]obsmetrics.FuncFamily, len(fams))
	for i, f := range fams {
		names[i] = obsmetrics.FuncFamily{Name: f.name, Help: f.help, Counter: f.counter}
	}
	r.FuncGroup(names, func() []float64 {
		st := snapshot()
		vals := make([]float64, len(fams))
		for i, f := range fams {
			vals[i] = f.get(st)
		}
		return vals
	})
}

// fsyncBuckets spreads WAL fsync latency: tens of microseconds on NVMe page
// cache up to hundreds of milliseconds on a congested disk.
var fsyncBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1}

// registerStore adds the ppdp_store_* families once Open has attached the
// durable store. Every family but the fsync histogram collects from
// store.Stats; /healthz's storage block reads the same fields (see
// storageJSON).
func (m *serverMetrics) registerStore(s *Server) {
	m.storeFsync = m.registry.Histogram("ppdp_store_wal_fsync_seconds",
		"WAL append fsync latency in seconds.", fsyncBuckets)
	registerStats(m.registry, s.store.Stats, []statFamily[store.Stats]{
		{"ppdp_store_generation", "Checkpoint generation of the durable store.", false,
			func(st store.Stats) float64 { return float64(st.Generation) }},
		{"ppdp_store_wal_bytes", "Write-ahead log bytes since the last checkpoint.", false,
			func(st store.Stats) float64 { return float64(st.WALBytes) }},
		{"ppdp_store_wal_records", "Write-ahead log records since the last checkpoint.", false,
			func(st store.Stats) float64 { return float64(st.WALRecords) }},
		{"ppdp_store_wal_fsyncs_total", "WAL fsyncs performed since boot.", true,
			func(st store.Stats) float64 { return float64(st.WALFsyncs) }},
		{"ppdp_store_snapshot_age_seconds", "Seconds since the newest checkpoint manifest was written.", false,
			snapshotAge},
		{"ppdp_store_checkpoint_errors_total", "Automatic checkpoints that failed (the WAL keeps the state safe).", true,
			func(st store.Stats) float64 { return float64(st.CheckpointErrors) }},
		{"ppdp_store_recovery_seconds", "Duration of the last boot's recovery (manifest load + WAL replay).", false,
			func(st store.Stats) float64 { return st.RecoverySeconds }},
		{"ppdp_store_recovered_records", "WAL records replayed by the last boot.", false,
			func(st store.Stats) float64 { return float64(st.RecoveredRecords) }},
		{"ppdp_store_recovered_torn", "Whether the last boot truncated a torn WAL tail (1) or found a clean log (0).", false,
			func(st store.Stats) float64 {
				if st.RecoveredTorn {
					return 1
				}
				return 0
			}},
		{"ppdp_store_mapped_tables", "Table snapshots currently mmap-resident.", false,
			func(st store.Stats) float64 { return float64(st.MappedTables) }},
		{"ppdp_store_mapped_bytes", "Bytes of table snapshots currently mmap-resident.", false,
			func(st store.Stats) float64 { return float64(st.MappedBytes) }},
		{"ppdp_store_table_files", "Content-addressed table snapshot files on disk.", false,
			func(st store.Stats) float64 { return float64(st.TableFiles) }},
		{"ppdp_store_table_bytes", "Bytes of table snapshot files on disk.", false,
			func(st store.Stats) float64 { return float64(st.TableBytes) }},
	})
}

// snapshotAge is the age in seconds of the newest checkpoint manifest.
func snapshotAge(st store.Stats) float64 {
	return time.Since(time.Unix(st.CheckpointUnix, 0)).Seconds()
}

// newServerMetrics registers the full inventory against s. The occupancy
// gauges are function-backed: they collect from the registry, the jobs
// manager, the reconciler and the result cache at scrape time. The closures
// read s.jobs and s.recon lazily — New assigns both before the server can
// serve a scrape.
func newServerMetrics(s *Server) *serverMetrics {
	r := obsmetrics.NewRegistry()
	m := &serverMetrics{registry: r}

	m.httpRequests = r.CounterVec("ppdp_http_requests_total",
		"HTTP requests served, by route pattern and status code.", "route", "status")
	m.httpLatency = r.HistogramVec("ppdp_http_request_duration_seconds",
		"HTTP request latency in seconds, by route pattern.", nil, "route")
	m.httpInFlight = r.Gauge("ppdp_http_in_flight_requests",
		"HTTP requests currently being served.")

	m.runLatency = r.HistogramVec("ppdp_run_duration_seconds",
		"Anonymization run latency in seconds, by algorithm.", runBuckets, "algorithm")
	m.runsTotal = r.CounterVec("ppdp_runs_total",
		"Anonymization runs executed, by algorithm and outcome.", "algorithm", "outcome")

	m.jobsTotal = r.CounterVec("ppdp_jobs_total",
		"Jobs reaching a terminal state, by state.", "state")
	m.jobsQueueWait = r.Histogram("ppdp_jobs_queue_wait_seconds",
		"Time jobs spent in the admission queue before dispatch.", nil)
	r.FuncGroup([]obsmetrics.FuncFamily{
		{Name: "ppdp_jobs_queued", Help: "Jobs waiting in the admission queue."},
		{Name: "ppdp_jobs_running", Help: "Jobs currently executing."},
	}, func() []float64 {
		q, run, _ := s.jobs.Counts()
		return []float64{float64(q), float64(run)}
	})

	r.FuncGroup([]obsmetrics.FuncFamily{
		{Name: "ppdp_registry_datasets", Help: "Datasets stored in the registry."},
		{Name: "ppdp_registry_releases", Help: "Releases stored in the registry."},
		{Name: "ppdp_registry_policies", Help: "Policies stored in the registry."},
	}, func() []float64 {
		return []float64{
			float64(s.reg.datasets.size()),
			float64(s.reg.releases.size()),
			float64(s.reg.policies.size()),
		}
	})

	registerStats(r, func() reconcile.Stats { return s.recon.Stats() }, []statFamily[reconcile.Stats]{
		{"ppdp_reconcile_specs", "Release specs tracked by the reconciler.", false,
			func(st reconcile.Stats) float64 { return float64(st.Specs) }},
		{"ppdp_reconcile_success_total", "Reconciliations that published a new release.", true,
			func(st reconcile.Stats) float64 { return float64(st.Success) }},
		{"ppdp_reconcile_noop_total", "Reconciliations short-circuited by a byte-identical dataset fingerprint.", true,
			func(st reconcile.Stats) float64 { return float64(st.Noop) }},
		{"ppdp_reconcile_errors_total", "Reconciliation runs that failed.", true,
			func(st reconcile.Stats) float64 { return float64(st.Errors) }},
		{"ppdp_reconcile_retries_total", "Backoff retries scheduled after failed reconciliations.", true,
			func(st reconcile.Stats) float64 { return float64(st.Retries) }},
		{"ppdp_reconcile_lag", "Summed dataset-generation lag over all tracked specs.", false,
			func(st reconcile.Stats) float64 { return float64(st.Lag) }},
	})

	if s.cache != nil {
		registerStats(r, s.cache.Stats, []statFamily[resultcache.Stats]{
			{"ppdp_cache_hits_total", "Result-cache hits.", true,
				func(st resultcache.Stats) float64 { return float64(st.Hits) }},
			{"ppdp_cache_misses_total", "Result-cache misses.", true,
				func(st resultcache.Stats) float64 { return float64(st.Misses) }},
			{"ppdp_cache_evictions_total", "Result-cache evictions.", true,
				func(st resultcache.Stats) float64 { return float64(st.Evictions) }},
			{"ppdp_cache_entries", "Result-cache entries.", false,
				func(st resultcache.Stats) float64 { return float64(st.Entries) }},
			{"ppdp_cache_capacity", "Result-cache capacity.", false,
				func(st resultcache.Stats) float64 { return float64(st.Capacity) }},
		})
	}

	r.FuncGroup([]obsmetrics.FuncFamily{{Name: "ppdp_uptime_seconds", Help: "Seconds since the server started."}},
		func() []float64 { return []float64{time.Since(s.started).Seconds()} })
	return m
}

// observeRun records one anonymization run's latency and outcome for the
// per-algorithm histograms; both executor paths (fresh runs; never cache
// hits, which execute nothing) report here.
func (m *serverMetrics) observeRun(algorithm string, elapsed time.Duration, err error) {
	m.runLatency.With(algorithm).Observe(elapsed.Seconds())
	m.runsTotal.With(algorithm, runOutcome(err)).Inc()
}

// runOutcome buckets a run error for the runs_total outcome label, mirroring
// classifyAnonymizeError's cancellation/timeout split without the HTTP
// statuses.
func runOutcome(err error) string {
	switch {
	case err == nil:
		return "success"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// JobStarted implements jobs.Observer: feed the queue-wait histogram.
func (m *serverMetrics) JobStarted(tenant string, queueWait time.Duration) {
	m.jobsQueueWait.Observe(queueWait.Seconds())
}

// JobFinished implements jobs.Observer: count terminal transitions by state.
func (m *serverMetrics) JobFinished(tenant string, state jobs.State) {
	m.jobsTotal.With(string(state)).Inc()
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.registry.Handler().ServeHTTP(w, r)
}

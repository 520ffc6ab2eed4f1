package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/jobs"
	"github.com/ppdp/ppdp/internal/policy"
)

// This file is the shared execution path of the service: one validated
// anonymization request becomes one executor job, whether the client asked
// for a synchronous response (POST /v1/anonymize submits and waits) or a
// background one (POST /v1/jobs submits and returns 202). Admission control,
// progress reporting, cancellation and release publication therefore behave
// identically on both paths.

// jobMeta is the request summary a job carries for listings: the dataset,
// the algorithm, and the canonical policy the release declares.
type jobMeta struct {
	dataset   string
	algorithm string
	policy    *policy.Policy
	policyRef string
	// spec names the release spec a reconciliation job serves ("" for
	// client-submitted anonymizations).
	spec string
}

// preparedRun is a fully validated anonymization ready for the executor: the
// dataset snapshot, the resolved algorithm, the pipeline and the run
// deadline.
type preparedRun struct {
	*pipeline
	req anonymizeRequest
	ds  *storedDataset
	alg core.Algorithm
	// policyRef is the stored-policy name the request referenced ("" for an
	// inline policy or flat parameters); the resolved snapshot lives on
	// pipeline.declared.
	policyRef string
	timeout   time.Duration
}

// pipeline is one configured anonymization: the policy-only core pipeline
// plus the policy its release declares.
type pipeline struct {
	anon *core.Anonymizer
	// declared is the canonical policy the release echoes, is measured
	// against, and is cached and listed under: anon.Policy() for an explicit
	// policy; for the deprecated flat parameters, their full translation,
	// which may declare criteria the algorithm does not enforce.
	declared *policy.Policy
	// remeasure marks a flat request whose release must be re-verified
	// against declared (see core.Anonymizer.Remeasure); orderedEMD is its
	// ordered_sensitive.
	remeasure, orderedEMD bool
}

// newPipeline builds the pipeline a request declares. It is the one
// constructor behind POST /v1/anonymize, POST /v1/jobs and spec
// reconciliation, so a spec publishes exactly what an anonymize request
// runs. explicit is the request's policy document (inline, or the stored one
// its policy_ref pinned); nil selects the deprecated flat parameters,
// translated here once by the algorithm's engine.Info.FlatPolicy — the same
// rule the CLI applies, so both edges declare the same policy. Explicit
// policies take no defaults.
func (s *Server) newPipeline(info engine.Info, req anonymizeRequest, explicit *policy.Policy, hier *hierarchy.Set) (*pipeline, error) {
	cfg := core.Config{
		Algorithm:        core.Algorithm(info.Name),
		Policy:           explicit,
		Sensitive:        req.Sensitive,
		QuasiIdentifiers: req.QuasiIdentifiers,
		Hierarchies:      hier,
		StrictMondrian:   req.StrictMondrian,
		Workers:          s.cfg.Workers,
	}
	var declared *policy.Policy
	if explicit == nil {
		flat := policy.Flat{L: req.L, DiversityMode: req.DiversityMode, C: req.C, T: req.T,
			OrderedSensitive: req.OrderedSensitive, Sensitive: req.Sensitive}
		if req.K != nil {
			flat.K = *req.K
		}
		if req.MaxSuppression != nil {
			flat.MaxSuppression = *req.MaxSuppression
		}
		var err error
		if cfg.Policy, declared, err = info.FlatPolicy(flat, req.K != nil, req.MaxSuppression != nil); err != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrConfig, err)
		}
	}
	anon, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if declared == nil {
		return &pipeline{anon: anon, declared: anon.Policy()}, nil
	}
	return &pipeline{anon: anon, declared: declared, orderedEMD: req.OrderedSensitive,
		remeasure: cfg.Policy != declared || req.OrderedSensitive}, nil
}

// run anonymizes t, reporting progress to sink.
func (p *pipeline) run(ctx context.Context, t *dataset.Table, sink func(done, total int)) (*core.Release, error) {
	rel, err := p.anon.WithProgress(sink).AnonymizeContext(ctx, t)
	if err != nil || !p.remeasure {
		return rel, err
	}
	if err := p.anon.Remeasure(rel, p.declared, p.orderedEMD); err != nil {
		return nil, err
	}
	return rel, nil
}

// prepareAnonymize resolves and validates an anonymize request for either
// path. It writes the error envelope itself and returns nil when the request
// cannot run.
//
// The privacy criteria arrive as a policy document ("policy"), a stored
// policy name ("policy_ref", pinned as a snapshot here so later deletes
// cannot change the run) or the deprecated flat parameters — mutually
// exclusive forms that all resolve to one canonical policy before any work
// is admitted (see newPipeline). Unsupported criterion/algorithm
// combinations in a policy are rejected at this stage by engine.Validate,
// which checks the algorithm's declared metadata.
func (s *Server) prepareAnonymize(w http.ResponseWriter, req anonymizeRequest) *preparedRun {
	if req.Dataset == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "dataset is required")
		return nil
	}
	ds, err := s.reg.datasets.get(req.Dataset)
	if err != nil {
		writeRegistryError(w, err)
		return nil
	}
	engineAlg, err := engine.Lookup(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return nil
	}
	info := engineAlg.Describe()
	explicit := req.Policy
	switch {
	case req.Policy != nil && req.PolicyRef != "":
		writeError(w, http.StatusBadRequest, "bad_request", "policy and policy_ref are mutually exclusive")
		return nil
	case (req.Policy != nil || req.PolicyRef != "") && req.flatParamsSet():
		writeError(w, http.StatusBadRequest, "bad_request",
			"policy/policy_ref and the deprecated flat privacy parameters are mutually exclusive")
		return nil
	case req.PolicyRef != "":
		sp, err := s.reg.policies.get(req.PolicyRef)
		if err != nil {
			writeRegistryError(w, err)
			return nil
		}
		// The stored document is immutable; holding the pointer pins the
		// snapshot for the lifetime of the run and its release.
		explicit = sp.Policy
	}
	pipe, err := s.newPipeline(info, req, explicit, ds.hier)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_config", "%v", err)
		return nil
	}
	// The run deadline bounds runaway parameter choices; the client may only
	// tighten it.
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return &preparedRun{pipeline: pipe, req: req, ds: ds, alg: core.Algorithm(info.Name),
		policyRef: req.PolicyRef, timeout: timeout}
}

// anonymizeOutcome is a successful run's payload in the executor: the full
// synchronous response body, including the release id when one was stored.
type anonymizeOutcome struct {
	resp anonymizeResponse
}

// anonymizeRunner builds the executor unit both request paths share. The
// runner threads the job's progress sink into the pipeline, and publishes the
// release into the registry only after re-checking the context — a canceled
// job never publishes.
func (s *Server) anonymizeRunner(p *preparedRun, storeRelease bool) jobs.Runner {
	return func(ctx context.Context, progress func(done, total int)) (any, error) {
		if s.runGate != nil {
			s.runGate(ctx)
		}
		start := time.Now()
		rel, err := p.run(ctx, p.ds.table, progress)
		elapsed := time.Since(start)
		// Every executed run lands in the per-algorithm latency histogram and
		// outcome counter, successful or not (cache hits never reach here).
		s.metrics.observeRun(string(p.alg), elapsed, err)
		if err != nil {
			return nil, err
		}
		if s.cache != nil && !p.req.NoCache {
			if key, kerr := cacheKey(p); kerr == nil {
				s.cache.Put(key, &cachedRun{release: rel, elapsed: elapsed})
			}
		}
		// The cancellation gate before publication: a job canceled during
		// the run (or right at this boundary) must not leave a release
		// behind for a client that asked it to stop.
		if err := ctx.Err(); storeRelease && err != nil {
			return nil, err
		}
		return s.outcome(p, rel, elapsed, storeRelease)
	}
}

// outcome builds the full anonymize response for a release — fresh or
// memoized — publishing it into the registry first when the request asked
// to store. A memoized release serves bytes identical to a fresh
// computation; only release_id (a new registry entry) and elapsed_ms (the
// original compute time) depend on the request.
func (s *Server) outcome(p *preparedRun, rel *core.Release, elapsed time.Duration, storeRelease bool) (*anonymizeOutcome, error) {
	resp := anonymizeResponse{
		Dataset:      p.req.Dataset,
		Algorithm:    string(p.alg),
		Policy:       rel.Policy,
		PolicyRef:    p.policyRef,
		Node:         rel.Node,
		Measurements: measurementsJSONOf(rel.Measured),
		ElapsedMS:    float64(elapsed.Microseconds()) / 1000,
	}
	switch {
	case rel.Table != nil:
		resp.Rows = rel.Table.Len()
		if p.req.IncludeRows {
			resp.Header = rel.Table.Schema().Names()
			resp.Data = pageOf(rel.Table, rel.Table.Len(), 0)
		}
	case rel.QIT != nil:
		resp.Rows = rel.QIT.Len()
	}
	if storeRelease {
		id, err := s.reg.putRelease(&storedRelease{
			dataset:   p.req.Dataset,
			family:    p.ds.Family,
			precision: generalizationPrecision(rel, p.req.QuasiIdentifiers, p.ds.hier),
			algorithm: p.alg,
			policyRef: p.policyRef,
			params:    p.req,
			release:   rel,
			elapsed:   elapsed,
			created:   time.Now(),
		})
		if err != nil {
			return nil, err
		}
		resp.ReleaseID = id
	}
	return &anonymizeOutcome{resp: resp}, nil
}

// submit settles a prepared run: from the result cache when an identical run
// was already computed (a hit skips the admission queue entirely), otherwise
// by admitting it into the shared queue under the request's tenant — mapping
// a full queue or an exhausted tenant quota to 429 with a Retry-After hint.
// It writes the error itself and reports ok.
func (s *Server) submit(w http.ResponseWriter, tenant string, p *preparedRun, storeRelease bool) (jobs.Snapshot, bool) {
	if snap, settled, ok := s.serveFromCache(w, tenant, p, storeRelease); settled {
		return snap, ok
	}
	snap, err := s.jobs.Submit(s.anonymizeRunner(p, storeRelease), jobs.Options{
		Tenant: tenant,
		Meta: jobMeta{
			dataset:   p.req.Dataset,
			algorithm: string(p.alg),
			policy:    p.declared,
			policyRef: p.policyRef,
		},
		Timeout: p.timeout,
	})
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "queue_full", "%v", err)
		case errors.Is(err, jobs.ErrTenantQuota):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "tenant_quota", "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		}
		return jobs.Snapshot{}, false
	}
	return snap, true
}

// settleAbandonedWait resolves the race where a synchronous waiter's context
// expired just as its run completed: cancel the job, and when cancellation
// reports the job already finished, return the final snapshot so the handler
// serves the completed outcome. Reports false when the job was still live
// (now canceled) — the caller answers with its timeout/disconnect error.
func (s *Server) settleAbandonedWait(id string) (jobs.Snapshot, bool) {
	if err := s.jobs.Cancel(id); !errors.Is(err, jobs.ErrFinished) {
		return jobs.Snapshot{}, false
	}
	snap, err := s.jobs.Get(id)
	return snap, err == nil
}

// ---- job views ----

// progressJSON is the JSON view of a job's live progress.
type progressJSON struct {
	Done    int     `json:"done"`
	Total   int     `json:"total"`
	Percent float64 `json:"percent"`
}

// jobInfo is the JSON view of one job. Policy is the canonical policy the
// release declares (the pinned snapshot when the request used a policy_ref);
// listings keep it nil the way they strip Result.
type jobInfo struct {
	ID            string         `json:"id"`
	State         string         `json:"state"`
	Tenant        string         `json:"tenant,omitempty"`
	Dataset       string         `json:"dataset,omitempty"`
	Algorithm     string         `json:"algorithm,omitempty"`
	Policy        *policy.Policy `json:"policy,omitempty"`
	PolicyRef     string         `json:"policy_ref,omitempty"`
	Spec          string         `json:"spec,omitempty"`
	Progress      progressJSON   `json:"progress"`
	QueuePosition int            `json:"queue_position,omitempty"`
	ReleaseID     string         `json:"release_id,omitempty"`
	Created       time.Time      `json:"created"`
	Started       *time.Time     `json:"started,omitempty"`
	Finished      *time.Time     `json:"finished,omitempty"`
	ElapsedMS     float64        `json:"elapsed_ms,omitempty"`
	// Result is the full anonymize response of a succeeded job — the same
	// body the synchronous path returns.
	Result *anonymizeResponse `json:"result,omitempty"`
	// Error carries the failure (or cancellation) in the envelope's
	// code/message shape for failed and canceled jobs.
	Error *apiError `json:"error,omitempty"`
}

func jobJSON(snap jobs.Snapshot) jobInfo {
	info := jobInfo{
		ID:            snap.ID,
		State:         string(snap.State),
		Tenant:        snap.Tenant,
		QueuePosition: snap.QueuePos,
		Created:       snap.Created,
		Progress: progressJSON{
			Done:  snap.Progress.Done,
			Total: snap.Progress.Total,
		},
	}
	if snap.Progress.Total > 0 {
		info.Progress.Percent = 100 * float64(snap.Progress.Done) / float64(snap.Progress.Total)
	}
	if m, ok := snap.Meta.(jobMeta); ok {
		info.Dataset = m.dataset
		info.Algorithm = m.algorithm
		info.Policy = m.policy
		info.PolicyRef = m.policyRef
		info.Spec = m.spec
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		info.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		info.Finished = &t
		if !snap.Started.IsZero() {
			info.ElapsedMS = float64(snap.Finished.Sub(snap.Started).Microseconds()) / 1000
		}
	}
	switch snap.State {
	case jobs.Succeeded:
		if out, ok := snap.Result.(*anonymizeOutcome); ok {
			info.ReleaseID = out.resp.ReleaseID
			resp := out.resp
			info.Result = &resp
		}
	case jobs.Failed:
		_, code := classifyAnonymizeError(snap.Err)
		info.Error = &apiError{Code: code, Message: snap.Err.Error()}
	case jobs.Canceled:
		info.Error = &apiError{Code: "canceled", Message: "job canceled"}
	}
	return info
}

// ---- job handlers ----

// handleSubmitJob admits a background anonymization: 202 with the job id and
// a Location header to poll. Background jobs always publish their release
// into the registry on success — the release is the job's durable result, so
// the request's store flag is implied.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req anonymizeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	p := s.prepareAnonymize(w, req)
	if p == nil {
		return
	}
	snap, ok := s.submit(w, tenantOf(r), p, true)
	if !ok {
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	writeJSON(w, http.StatusAccepted, jobJSON(snap))
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	snaps := s.jobs.List()
	out := make([]jobInfo, len(snaps))
	for i, snap := range snaps {
		out[i] = jobJSON(snap)
		// The listing stays a summary: result payloads (potentially full row
		// data under include_rows) and policy documents are served only by
		// GET /v1/jobs/{id}.
		out[i].Result = nil
		out[i].Policy = nil
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, jobJSON(snap))
}

// handleCancelJob cancels a queued or running job. Cancellation of a running
// job is asynchronous — the algorithm observes it at its next unit of work —
// so the endpoint answers 202 with the current snapshot; polling the job
// shows the canceled state once the run drains.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, "not_found", "%v", err)
		return
	case errors.Is(err, jobs.ErrFinished):
		writeError(w, http.StatusConflict, "conflict", "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	snap, err := s.jobs.Get(id)
	if err != nil {
		// Canceled and already evicted between the two calls; report the
		// terminal state without a snapshot.
		writeJSON(w, http.StatusAccepted, jobInfo{ID: id, State: string(jobs.Canceled)})
		return
	}
	writeJSON(w, http.StatusAccepted, jobJSON(snap))
}

package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/jobs"
)

// This file wires the cross-request result cache (internal/resultcache) into
// the shared execution path. Every algorithm is deterministic for a fixed
// (dataset, policy, parameters) input — worker counts never change released
// bytes (see the per-algorithm equivalence tests) — so a release computed
// once can answer every later identical request. The cache key is built from
// the dataset's content fingerprint rather than its registry name, which
// makes invalidation implicit: replacing a dataset under the same name
// changes its fingerprint, and the stale entry simply stops being reachable
// until the LRU evicts it.

// cachedRun is one memoized successful run: the published release and how
// long the original computation took. The response body is rebuilt per
// request (store and include_rows shape responses, not results), so only the
// release is cached.
type cachedRun struct {
	release *core.Release
	elapsed time.Duration
}

// cacheKeySep joins key components; components are either fingerprints,
// registry-validated names or canonical JSON, so a 0x1f byte cannot occur
// inside one and the join is collision-free.
const cacheKeySep = "\x1f"

// cacheKey derives the memoization key of a prepared run. Components, in
// order: the dataset's content fingerprint (schema + rows), its family, the
// algorithm, the canonical policy document (which subsumes every flat
// privacy parameter: k, l, t, c, diversity mode, suppression budget), and
// the remaining request knobs that steer the run outside the policy —
// sensitive-attribute override, quasi-identifier restriction, strict
// Mondrian, and, when set, the flat ordered_sensitive (which changes the
// measured max_emd even when no t-closeness criterion carries it). Workers
// is deliberately excluded (output-invariant), as are store / include_rows /
// timeout_ms (response shaping, not computation).
func cacheKey(p *preparedRun) (string, error) {
	pol, err := p.declared.Encode()
	if err != nil {
		return "", err
	}
	parts := []string{
		p.ds.table.Fingerprint(),
		p.ds.Family,
		string(p.alg),
		string(pol),
		p.req.Sensitive,
		strings.Join(p.req.QuasiIdentifiers, ","),
		strconv.FormatBool(p.req.StrictMondrian),
	}
	if p.orderedEMD {
		parts = append(parts, "ordered_sensitive")
	}
	return strings.Join(parts, cacheKeySep), nil
}

// serveFromCache answers a prepared run from the result cache when possible.
// A hit bypasses the admission queue entirely: the outcome is recorded as an
// already-succeeded job (jobs.Manager.Complete), so both request paths keep
// their contract — the synchronous handler's Wait returns immediately, and
// the asynchronous client still gets a pollable job id. settled reports
// whether the request needs no submission: either snap is a valid succeeded
// job (ok) or the error envelope was already written (!ok).
func (s *Server) serveFromCache(w http.ResponseWriter, tenant string, p *preparedRun, storeRelease bool) (snap jobs.Snapshot, settled, ok bool) {
	if s.cache == nil || p.req.NoCache {
		return jobs.Snapshot{}, false, false
	}
	key, err := cacheKey(p)
	if err != nil {
		// An unencodable policy cannot happen for a validated run; fall
		// through to a fresh computation rather than failing the request.
		return jobs.Snapshot{}, false, false
	}
	v, hit := s.cache.Get(key)
	if !hit {
		return jobs.Snapshot{}, false, false
	}
	run := v.(*cachedRun)
	out, err := s.outcome(p, run.release, run.elapsed, storeRelease)
	if err != nil {
		writeAnonymizeError(w, err)
		return jobs.Snapshot{}, true, false
	}
	snap, err = s.jobs.Complete(out, jobs.Options{Tenant: tenant, Meta: jobMeta{
		dataset:   p.req.Dataset,
		algorithm: string(p.alg),
		policy:    p.declared,
		policyRef: p.policyRef,
	}})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return jobs.Snapshot{}, true, false
	}
	return snap, true, true
}

// cacheStatsJSON is the /healthz view of the result cache; handleHealthz
// fills it from one resultcache.Stats snapshot, the fields the ppdp_cache_*
// families scrape.
type cacheStatsJSON struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

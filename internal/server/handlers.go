package server

import (
	"context"
	"encoding/json"
	"errors"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/jobs"
	"github.com/ppdp/ppdp/internal/metrics"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/risk"
	"github.com/ppdp/ppdp/internal/synth"
)

// ---- datasets ----

// datasetInfo is the JSON view of a stored dataset.
type datasetInfo struct {
	Name             string    `json:"name"`
	Family           string    `json:"family,omitempty"`
	Rows             int       `json:"rows"`
	Columns          []string  `json:"columns"`
	QuasiIdentifiers []string  `json:"quasi_identifiers"`
	Sensitive        []string  `json:"sensitive"`
	Created          time.Time `json:"created"`
}

func datasetJSON(ds *storedDataset) datasetInfo {
	return datasetInfo{
		Name:             ds.name,
		Family:           ds.Family,
		Rows:             ds.table.Len(),
		Columns:          ds.table.Schema().Names(),
		QuasiIdentifiers: ds.table.Schema().QuasiIdentifierNames(),
		Sensitive:        ds.table.Schema().SensitiveNames(),
		Created:          time.Unix(0, ds.CreatedUnix),
	}
}

// maxGenerateRows caps synthetic generation per dataset: the generators run
// synchronously and allocate in memory, so an unbounded count would let one
// request exhaust the process (uploads are bounded by MaxBodyBytes instead).
const maxGenerateRows = 1_000_000

// generateRequest is the POST /v1/datasets body: materialize one of the
// synthetic benchmark families under a registry name.
type generateRequest struct {
	Name   string `json:"name"`
	Family string `json:"family"`
	Rows   int    `json:"rows"`
	// Seed is a pointer so an explicit 0 is distinguishable from absent
	// (which defaults to 42).
	Seed *int64 `json:"seed"`
}

func (s *Server) handleGenerateDataset(w http.ResponseWriter, r *http.Request) {
	var req generateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "name is required")
		return
	}
	if req.Rows <= 0 {
		req.Rows = 5000
	}
	if req.Rows > maxGenerateRows {
		writeError(w, http.StatusBadRequest, "bad_request",
			"rows %d exceeds the per-dataset limit %d", req.Rows, maxGenerateRows)
		return
	}
	seed := int64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	tenant := tenantOf(r)
	// Advisory pre-check before generating up to a million rows; the
	// authoritative check stays inside putDataset.
	if err := s.reg.canCreateDataset(req.Name, tenant, s.cfg.TenantMaxDatasets); err != nil {
		writeRegistryError(w, err)
		return
	}
	if req.Family == "" {
		req.Family = "census"
	}
	family, err := synth.FamilyByName(req.Family)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	ds := &storedDataset{
		name:        req.Name,
		datasetMeta: datasetMeta{Family: family.Name, Tenant: tenant, CreatedUnix: time.Now().UnixNano()},
		table:       family.Generate(req.Rows, seed),
		hier:        family.Hierarchies(),
	}
	ds.table.SetScanWorkers(s.scanWorkers())
	if err := s.reg.putDataset(ds, false, nil, s.cfg.TenantMaxDatasets); err != nil {
		writeRegistryError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, datasetJSON(ds))
}

// handleUploadDataset ingests a CSV body under PUT /v1/datasets/{name}. The
// ?family= query parameter selects the schema (census or hospital); uploads
// of already-released tables (identifier columns stripped) are accepted via
// the identifier-free fallback schema. PUT is create-or-replace.
func (s *Server) handleUploadDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	family := r.URL.Query().Get("family")
	if family == "" {
		family = "census"
	}
	f, err := synth.FamilyByName(family)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	// ReadCSV buffers the body once itself (it needs two parse attempts),
	// so the handler streams the request straight in instead of holding a
	// second copy.
	tbl, err := f.ReadCSV(r.Body)
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "bad_csv", "%v", err)
		return
	}
	tbl.SetScanWorkers(s.scanWorkers())
	ds := &storedDataset{name: name, table: tbl, hier: f.Hierarchies(),
		datasetMeta: datasetMeta{Family: f.Name, Tenant: tenantOf(r), CreatedUnix: time.Now().UnixNano()}}
	if err := s.reg.putDataset(ds, true, nil, s.cfg.TenantMaxDatasets); err != nil {
		writeRegistryError(w, err)
		return
	}
	// A replace bumps the dataset generation: wake the reconciler for every
	// spec watching this name (after the registry lock is released).
	s.notifyDatasetChanged(ds)
	writeJSON(w, http.StatusCreated, datasetJSON(ds))
}

// handleAppendRows ingests a CSV body under POST /v1/datasets/{name}/rows and
// appends its rows to the stored dataset. The upload must parse under the
// dataset's own schema — a header or column-type mismatch is a 400 with the
// "schema_mismatch" code. The append is copy-on-write: the grown table
// replaces the name as a new generation (same path as a PUT replace,
// including tenant quota accounting) while readers of the previous one keep
// it, and the reconciler is notified. The replace is conditional on the
// generation the rows were applied to: when a concurrent append or PUT got
// there first, the rows are applied again to the dataset as it now stands,
// so every acknowledged append adds its rows exactly once.
func (s *Server) handleAppendRows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cur, err := s.reg.datasets.get(name)
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	f, err := synth.FamilyByName(cur.Family)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "unsupported",
			"dataset %q has no resolvable schema family (%v); re-upload it under a known family first", name, err)
		return
	}
	rows, err := f.ReadCSV(r.Body)
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "bad_csv", "%v", err)
		return
	}
	for {
		// Clone-then-append: the stored table is immutable (released
		// snapshots and concurrent readers share it), so the rows land on a
		// deep copy that then replaces the name as the next generation.
		merged := cur.table.Clone()
		if err := merged.AppendTable(rows); err != nil {
			if errors.Is(err, dataset.ErrSchemaMismatch) {
				writeError(w, http.StatusBadRequest, "schema_mismatch", "%v", err)
				return
			}
			writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
			return
		}
		merged.SetScanWorkers(s.scanWorkers())
		ds := &storedDataset{name: name, table: merged, hier: cur.hier,
			datasetMeta: datasetMeta{Family: cur.Family, Tenant: tenantOf(r), CreatedUnix: time.Now().UnixNano()}}
		err := s.reg.putDataset(ds, true, cur, s.cfg.TenantMaxDatasets)
		if errors.Is(err, errDatasetMoved) {
			// Each lost race means another write succeeded, so the retries
			// end. A dataset deleted meanwhile is a 404 from here.
			if cur, err = s.reg.datasets.get(name); err != nil {
				writeRegistryError(w, err)
				return
			}
			continue
		}
		if err != nil {
			writeRegistryError(w, err)
			return
		}
		s.notifyDatasetChanged(ds)
		writeJSON(w, http.StatusOK, datasetJSON(ds))
		return
	}
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	serveList(w, "datasets", s.reg.datasets.list(), datasetJSON)
}

// serveList renders every entry of a collection listing under key.
func serveList[T, V any](w http.ResponseWriter, key string, list []T, view func(T) V) {
	out := make([]V, len(list))
	for i, v := range list {
		out[i] = view(v)
	}
	writeJSON(w, http.StatusOK, map[string]any{key: out})
}

// serveGet renders one entry of c, or the registry error for a missing name.
func serveGet[T, V any](w http.ResponseWriter, c *collection[T], name string, view func(T) V) {
	v, err := c.get(name)
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view(v))
}

// serveDelete answers a registry delete: 204, or the error's envelope.
func serveDelete(w http.ResponseWriter, err error) {
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// acceptsMedia reports whether the request's Accept header asks for the
// given media type. Absent and wildcard Accept headers do not count: every
// endpoint keeps serving its historical default unless the client asks for
// the alternative explicitly.
func acceptsMedia(r *http.Request, media string) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		if mt == media {
			return true
		}
	}
	return false
}

// defaultPageLimit is the row-page size when the JSON form paginates without
// an explicit limit, so a large table never materializes one giant body.
const defaultPageLimit = 1000

// pageParams parses the limit/offset row-pagination query parameters.
// explicit reports whether the client asked for pagination at all. It writes
// the error envelope itself and reports ok=false on a malformed parameter.
func pageParams(w http.ResponseWriter, r *http.Request) (limit, offset int, explicit, ok bool) {
	limit = defaultPageLimit
	var err error
	if q := r.URL.Query().Get("limit"); q != "" {
		explicit = true
		if limit, err = strconv.Atoi(q); err != nil || limit < 1 {
			writeError(w, http.StatusBadRequest, "bad_request", "limit must be a positive integer")
			return 0, 0, false, false
		}
	}
	if q := r.URL.Query().Get("offset"); q != "" {
		explicit = true
		if offset, err = strconv.Atoi(q); err != nil || offset < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "offset must be a non-negative integer")
			return 0, 0, false, false
		}
	}
	return limit, offset, explicit, true
}

// pageOf slices one row window out of a table via the per-row accessor —
// O(limit) per page, never a full-table copy (Table.Rows copies every row).
func pageOf(t *dataset.Table, limit, offset int) [][]string {
	end := offset + limit
	if end > t.Len() || end < 0 { // end < 0: offset+limit overflowed
		end = t.Len()
	}
	if offset >= end {
		return [][]string{}
	}
	out := make([][]string, 0, end-offset)
	for i := offset; i < end; i++ {
		row, err := t.Row(i)
		if err != nil {
			break // unreachable for i < Len; keep the page well-formed anyway
		}
		out = append(out, row)
	}
	return out
}

// streamCSV serves a table as attachment CSV. WriteCSV flushes row by row,
// so the response streams instead of materializing one buffered body; the
// pagination parameters belong to the JSON form and are rejected rather
// than silently ignored.
func (s *Server) streamCSV(w http.ResponseWriter, r *http.Request, name string, tbl *dataset.Table) {
	if r.URL.Query().Get("limit") != "" || r.URL.Query().Get("offset") != "" {
		writeError(w, http.StatusBadRequest, "bad_request",
			"limit/offset paginate the JSON form; the CSV stream always carries every row")
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	// FormatMediaType quotes/escapes the filename, so user-chosen dataset
	// names with spaces or quotes stay one well-formed RFC 6266 parameter.
	w.Header().Set("Content-Disposition",
		mime.FormatMediaType("attachment", map[string]string{"filename": name + ".csv"}))
	// Errors past this point are I/O failures on a committed response.
	_ = tbl.WriteCSV(w)
}

// datasetPage is the paginated JSON view of a stored dataset's rows.
type datasetPage struct {
	datasetInfo
	Header    []string   `json:"header"`
	Data      [][]string `json:"data"`
	Offset    int        `json:"offset"`
	Limit     int        `json:"limit"`
	TotalRows int        `json:"total_rows"`
}

// handleGetDataset serves dataset metadata as JSON (the historical default),
// a row page when limit/offset are present, or the full table as streamed
// CSV under Accept: text/csv.
func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	ds, err := s.reg.datasets.get(r.PathValue("name"))
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	if acceptsMedia(r, "text/csv") {
		s.streamCSV(w, r, ds.name, ds.table)
		return
	}
	limit, offset, explicit, ok := pageParams(w, r)
	if !ok {
		return
	}
	if !explicit {
		writeJSON(w, http.StatusOK, datasetJSON(ds))
		return
	}
	writeJSON(w, http.StatusOK, datasetPage{
		datasetInfo: datasetJSON(ds),
		Header:      ds.table.Schema().Names(),
		Data:        pageOf(ds.table, limit, offset),
		Offset:      offset,
		Limit:       limit,
		TotalRows:   ds.table.Len(),
	})
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	serveDelete(w, s.reg.deleteDataset(r.PathValue("name")))
}

// ---- algorithms ----

// handleAlgorithms serves the engine registry's capability cards verbatim:
// name, description, release kind, capability flags and the machine-readable
// parameter list of every registered algorithm. The response is generated —
// an algorithm registered with the engine appears here with no server edit.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"algorithms": engine.Infos()})
}

// ---- anonymize ----

// anonymizeRequest is the POST /v1/anonymize body. The privacy criteria are
// declared either as a policy document ("policy"), by reference to a stored
// one ("policy_ref"), or through the deprecated flat parameters (k, l, t, c,
// diversity_mode, max_suppression, ordered_sensitive) — the three forms are
// mutually exclusive, and flat parameters are translated onto the policy
// pipeline (see newPipeline); either way the response echoes the canonical
// policy the release declares. Zero values mean "use the pipeline default"
// throughout.
type anonymizeRequest struct {
	// Dataset names the registry table to anonymize (required).
	Dataset string `json:"dataset"`
	// Algorithm is one of the seven names; mondrian when empty.
	Algorithm string `json:"algorithm"`
	// Policy declares the privacy criteria as a policy document.
	Policy *policy.Policy `json:"policy"`
	// PolicyRef names a stored policy (see POST /v1/policies); the run pins
	// the stored document as an immutable snapshot.
	PolicyRef string `json:"policy_ref"`
	// K, L, T, C and DiversityMode are the flat privacy parameters. K is a
	// pointer so an explicit 0, rejected like the CLI's -k 0, is told apart
	// from an omitted k, which takes the algorithm's declared default.
	//
	// Deprecated: declare criteria in "policy" / "policy_ref" instead.
	K             *int    `json:"k"`
	L             int     `json:"l"`
	T             float64 `json:"t"`
	C             float64 `json:"c"`
	DiversityMode string  `json:"diversity_mode"`
	// Sensitive overrides the schema's sensitive attribute.
	Sensitive string `json:"sensitive"`
	// QuasiIdentifiers restricts the quasi-identifier.
	QuasiIdentifiers []string `json:"quasi_identifiers"`
	// MaxSuppression bounds record suppression (datafly/samarati); the
	// pointer distinguishes "absent" (default 0.02) from an explicit 0.
	//
	// Deprecated: declare a suppression budget in the policy instead.
	MaxSuppression *float64 `json:"max_suppression"`
	// StrictMondrian selects strict partitioning.
	StrictMondrian bool `json:"strict_mondrian"`
	// OrderedSensitive selects the ordered-distance EMD for t-closeness.
	//
	// Deprecated: set "ordered" on the policy's t-closeness criterion.
	OrderedSensitive bool `json:"ordered_sensitive"`
	// NoCache bypasses the cross-request result cache for this run: the
	// release is computed fresh and the outcome is not memoized.
	NoCache bool `json:"no_cache"`
	// Store keeps the release in the registry for later report queries.
	Store bool `json:"store"`
	// IncludeRows inlines the released rows into the response.
	IncludeRows bool `json:"include_rows"`
	// TimeoutMS tightens (never widens) the server's request timeout.
	TimeoutMS int `json:"timeout_ms"`
}

// flatParamsSet reports whether any deprecated flat privacy parameter is
// present, for the mutual-exclusion check against policy/policy_ref.
func (r anonymizeRequest) flatParamsSet() bool {
	return r.K != nil || r.L != 0 || r.T != 0 || r.C != 0 || r.DiversityMode != "" ||
		r.MaxSuppression != nil || r.OrderedSensitive
}

// journaled returns r as read back from the journal. Records written before
// K was a pointer say "k": 0 for an omitted k, and an explicit 0 is rejected
// before anything is journaled, so a journaled 0 always means omitted.
func (r anonymizeRequest) journaled() anonymizeRequest {
	if r.K != nil && *r.K == 0 {
		r.K = nil
	}
	return r
}

// criterionMeasurementJSON is the JSON view of one verified policy criterion.
type criterionMeasurementJSON struct {
	Satisfied bool         `json:"satisfied"`
	Measured  core.Measure `json:"measured"`
	Target    core.Measure `json:"target"`
	Sensitive string       `json:"sensitive,omitempty"`
}

// measurementsJSON is the JSON view of core.Measurements. The legacy scalar
// trio (k, distinct_l, max_emd) stays for compatibility; criteria carries
// the per-criterion verification keyed by criterion type.
type measurementsJSON struct {
	K                 int                                 `json:"k"`
	DistinctL         int                                 `json:"distinct_l"`
	MaxEMD            core.Measure                        `json:"max_emd"`
	Criteria          map[string]criterionMeasurementJSON `json:"criteria,omitempty"`
	NCP               core.Measure                        `json:"ncp"`
	Discernibility    core.Measure                        `json:"discernibility"`
	ProsecutorMaxRisk core.Measure                        `json:"prosecutor_max_risk"`
	SuppressedRows    int                                 `json:"suppressed_rows"`
}

func measurementsJSONOf(m core.Measurements) measurementsJSON {
	out := measurementsJSON{
		K: m.K, DistinctL: m.DistinctL, MaxEMD: m.MaxEMD, NCP: m.NCP,
		Discernibility: m.Discernibility, ProsecutorMaxRisk: m.ProsecutorMaxRisk,
		SuppressedRows: m.SuppressedRows,
	}
	if len(m.Criteria) > 0 {
		out.Criteria = make(map[string]criterionMeasurementJSON, len(m.Criteria))
		for typ, c := range m.Criteria {
			out.Criteria[typ] = criterionMeasurementJSON{
				Satisfied: c.Satisfied, Measured: c.Measured, Target: c.Target, Sensitive: c.Sensitive,
			}
		}
	}
	return out
}

// anonymizeResponse is the POST /v1/anonymize result. Policy echoes the
// canonical privacy policy the release declares, whichever request form
// declared it.
type anonymizeResponse struct {
	ReleaseID    string           `json:"release_id,omitempty"`
	Dataset      string           `json:"dataset"`
	Algorithm    string           `json:"algorithm"`
	Policy       *policy.Policy   `json:"policy,omitempty"`
	PolicyRef    string           `json:"policy_ref,omitempty"`
	Rows         int              `json:"rows"`
	Node         []int            `json:"node,omitempty"`
	Measurements measurementsJSON `json:"measurements"`
	ElapsedMS    float64          `json:"elapsed_ms"`
	Header       []string         `json:"header,omitempty"`
	Data         [][]string       `json:"data,omitempty"`
}

// handleAnonymize is the synchronous path: the request is validated, admitted
// into the same executor queue as POST /v1/jobs (one admission policy governs
// both), and the handler waits for the run to finish. A full queue is 429
// with Retry-After; a wait that outlives the request deadline (or the client)
// sheds the job through its cancellation path before answering.
func (s *Server) handleAnonymize(w http.ResponseWriter, r *http.Request) {
	var req anonymizeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	p := s.prepareAnonymize(w, req)
	if p == nil {
		return
	}
	snap, ok := s.submit(w, tenantOf(r), p, req.Store)
	if !ok {
		return
	}
	// The deadline covers queue wait plus run; the job's own run timeout
	// (p.timeout, enforced by the executor) covers the run alone, so whichever
	// fires first sheds the work.
	waitCtx, cancel := context.WithTimeout(r.Context(), p.timeout)
	defer cancel()
	final, err := s.jobs.Wait(waitCtx, snap.ID)
	if err != nil {
		// The job keeps running without a waiter otherwise — cancel it, then
		// report why the wait ended: client gone (499) or deadline (504).
		// Except when the run beat the cancellation to the finish line: its
		// release (under store) is already published, so serve the real
		// outcome rather than a spurious error that invites a duplicating
		// retry.
		settled, ok := s.settleAbandonedWait(snap.ID)
		if !ok {
			if r.Context().Err() != nil {
				writeError(w, StatusClientClosedRequest, "canceled", "request canceled: %v", r.Context().Err())
				return
			}
			writeError(w, http.StatusGatewayTimeout, "timeout",
				"anonymization exceeded the request deadline: %v", err)
			return
		}
		final = settled
	}
	// The response is about to be delivered; drop the job record so the
	// synchronous path never pins result payloads for the job TTL the way
	// pollable background jobs must.
	_ = s.jobs.Forget(final.ID)
	switch final.State {
	case jobs.Succeeded:
		out, ok := final.Result.(*anonymizeOutcome)
		if !ok {
			writeError(w, http.StatusInternalServerError, "internal", "job %s returned no outcome", final.ID)
			return
		}
		writeJSON(w, http.StatusOK, out.resp)
	case jobs.Canceled:
		writeError(w, StatusClientClosedRequest, "canceled", "request canceled: %v", final.Err)
	default:
		writeAnonymizeError(w, final.Err)
	}
}

// ---- releases ----

// releaseInfo is the JSON view of a stored release. Policy is the canonical
// privacy policy the release declares (the pinned snapshot when the request
// used a policy_ref).
type releaseInfo struct {
	ID           string           `json:"id"`
	Dataset      string           `json:"dataset"`
	Algorithm    string           `json:"algorithm"`
	Policy       *policy.Policy   `json:"policy,omitempty"`
	PolicyRef    string           `json:"policy_ref,omitempty"`
	Rows         int              `json:"rows"`
	Node         []int            `json:"node,omitempty"`
	Measurements measurementsJSON `json:"measurements"`
	ElapsedMS    float64          `json:"elapsed_ms"`
	Created      time.Time        `json:"created"`
}

func releaseJSON(rel *storedRelease) releaseInfo {
	info := releaseInfo{
		ID:           rel.id,
		Dataset:      rel.dataset,
		Algorithm:    string(rel.algorithm),
		Policy:       rel.release.Policy,
		PolicyRef:    rel.policyRef,
		Node:         rel.release.Node,
		Measurements: measurementsJSONOf(rel.release.Measured),
		ElapsedMS:    float64(rel.elapsed.Microseconds()) / 1000,
		Created:      rel.created,
	}
	switch {
	case rel.release.Table != nil:
		info.Rows = rel.release.Table.Len()
	case rel.release.QIT != nil:
		info.Rows = rel.release.QIT.Len()
	}
	return info
}

func (s *Server) handleListReleases(w http.ResponseWriter, r *http.Request) {
	serveList(w, "releases", s.reg.releases.list(), releaseJSON)
}

func (s *Server) handleGetRelease(w http.ResponseWriter, r *http.Request) {
	serveGet(w, &s.reg.releases, r.PathValue("id"), releaseJSON)
}

func (s *Server) handleDeleteRelease(w http.ResponseWriter, r *http.Request) {
	serveDelete(w, s.reg.deleteRelease(r.PathValue("id")))
}

// releaseDataPage is the paginated JSON view of a release's rows.
type releaseDataPage struct {
	ReleaseID string     `json:"release_id"`
	Table     string     `json:"table,omitempty"`
	Header    []string   `json:"header"`
	Data      [][]string `json:"data"`
	Offset    int        `json:"offset"`
	Limit     int        `json:"limit"`
	TotalRows int        `json:"total_rows"`
}

// handleReleaseData serves a stored release's rows: streamed CSV by default
// (the historical contract), or a limit/offset row page under
// Accept: application/json, so large releases can be fetched without
// materializing one giant response body. Anatomy releases pick the table
// with ?table=qit|st (default qit); microdata releases have a single table
// and reject an explicit table selector rather than silently serving the
// wrong thing.
func (s *Server) handleReleaseData(w http.ResponseWriter, r *http.Request) {
	rel, err := s.reg.releases.get(r.PathValue("id"))
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	which := r.URL.Query().Get("table")
	if which != "" && which != "qit" && which != "st" {
		writeError(w, http.StatusBadRequest, "bad_request", "table must be qit or st")
		return
	}
	tbl := rel.release.Table
	if tbl != nil {
		if which != "" {
			writeError(w, http.StatusBadRequest, "bad_request",
				"release %s is a single microdata table; drop the table parameter", rel.id)
			return
		}
	} else {
		if which == "" || which == "qit" {
			tbl = rel.release.QIT
		} else {
			tbl = rel.release.ST
		}
	}
	if tbl == nil {
		writeError(w, http.StatusUnprocessableEntity, "unsupported", "release %s has no table", rel.id)
		return
	}
	if acceptsMedia(r, "application/json") {
		limit, offset, _, ok := pageParams(w, r)
		if !ok {
			return
		}
		page := releaseDataPage{
			ReleaseID: rel.id,
			Header:    tbl.Schema().Names(),
			Data:      pageOf(tbl, limit, offset),
			Offset:    offset,
			Limit:     limit,
			TotalRows: tbl.Len(),
		}
		if rel.release.Table == nil {
			page.Table = which
			if page.Table == "" {
				page.Table = "qit"
			}
		}
		writeJSON(w, http.StatusOK, page)
		return
	}
	s.streamCSV(w, r, rel.id, tbl)
}

// riskReport is the GET /v1/releases/{id}/risk body.
type riskReport struct {
	ReleaseID     string              `json:"release_id"`
	Records       int                 `json:"records"`
	Classes       int                 `json:"classes"`
	ProsecutorMax float64             `json:"prosecutor_max"`
	ProsecutorAvg float64             `json:"prosecutor_avg"`
	Threshold     float64             `json:"threshold"`
	RecordsAtRisk float64             `json:"records_at_risk"`
	Sensitive     []sensitiveRiskJSON `json:"sensitive,omitempty"`
}

// sensitiveRiskJSON reports attribute disclosure for one sensitive column.
type sensitiveRiskJSON struct {
	Attribute         string  `json:"attribute"`
	FullyDisclosed    float64 `json:"fully_disclosed"`
	ExpectedGuessRate float64 `json:"expected_guess_rate"`
	BaselineGuessRate float64 `json:"baseline_guess_rate"`
	WorstClassShare   float64 `json:"worst_class_share"`
}

func (s *Server) handleReleaseRisk(w http.ResponseWriter, r *http.Request) {
	rel, err := s.reg.releases.get(r.PathValue("id"))
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	tbl := rel.release.Table
	if tbl == nil {
		writeError(w, http.StatusUnprocessableEntity, "unsupported",
			"risk reports cover microdata releases; anatomy publishes QIT/ST (fetch them via /data)")
		return
	}
	threshold := 0.2
	if q := r.URL.Query().Get("threshold"); q != "" {
		threshold, err = strconv.ParseFloat(q, 64)
		if err != nil || threshold < 0 || threshold > 1 {
			writeError(w, http.StatusBadRequest, "bad_request", "threshold must be a number in [0,1]")
			return
		}
	}
	rr, err := risk.MeasureReidentification(tbl, threshold)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	report := riskReport{
		ReleaseID:     rel.id,
		Records:       rr.Records,
		Classes:       rr.Classes,
		ProsecutorMax: rr.ProsecutorMax,
		ProsecutorAvg: rr.ProsecutorAvg,
		Threshold:     rr.Threshold,
		RecordsAtRisk: rr.RecordsAtRisk,
	}
	for _, sensitive := range tbl.Schema().SensitiveNames() {
		h, err := risk.HomogeneityAttack(tbl, sensitive)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", "%v", err)
			return
		}
		base, err := risk.BaselineGuessRate(tbl, sensitive)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", "%v", err)
			return
		}
		report.Sensitive = append(report.Sensitive, sensitiveRiskJSON{
			Attribute:         sensitive,
			FullyDisclosed:    h.FullyDisclosed,
			ExpectedGuessRate: h.ExpectedGuessRate,
			BaselineGuessRate: base,
			WorstClassShare:   h.WorstClassShare,
		})
	}
	writeJSON(w, http.StatusOK, report)
}

// utilityReport is the GET /v1/releases/{id}/utility body.
type utilityReport struct {
	ReleaseID               string       `json:"release_id"`
	Dataset                 string       `json:"dataset"`
	NCP                     core.Measure `json:"ncp"`
	Discernibility          core.Measure `json:"discernibility"`
	NormalizedAvgClassSize  float64      `json:"normalized_avg_class_size"`
	NormalizedAvgClassSizeK int          `json:"normalized_avg_class_size_k"`
	// GeneralizationPrecision is present only for full-domain releases
	// (those that carry a lattice node).
	GeneralizationPrecision *float64 `json:"generalization_precision,omitempty"`
}

func (s *Server) handleReleaseUtility(w http.ResponseWriter, r *http.Request) {
	rel, err := s.reg.releases.get(r.PathValue("id"))
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	tbl := rel.release.Table
	if tbl == nil {
		writeError(w, http.StatusUnprocessableEntity, "unsupported",
			"utility reports cover microdata releases; anatomy keeps exact QI values by design")
		return
	}
	// C_avg normalizes against the release's own class-size bound, which a
	// policy request declares in its policy rather than a flat k.
	k := 0
	if rel.release.Policy != nil {
		k = rel.release.Policy.KAnonymityK()
	}
	if k < 1 {
		k = 10
	}
	if q := r.URL.Query().Get("k"); q != "" {
		k, err = strconv.Atoi(q)
		if err != nil || k < 1 {
			writeError(w, http.StatusBadRequest, "bad_request", "k must be a positive integer")
			return
		}
	}
	// NCP and discernibility are the release's own measurements, taken
	// against the dataset snapshot and hierarchies of its run; recomputing
	// them here would score the release against whatever hierarchies the
	// dataset has now (none, for an unknown family recovered from disk).
	report := utilityReport{ReleaseID: rel.id, Dataset: rel.dataset, NormalizedAvgClassSizeK: k,
		NCP: rel.release.Measured.NCP, Discernibility: rel.release.Measured.Discernibility}
	report.NormalizedAvgClassSize, err = metrics.NormalizedAverageClassSize(tbl, k)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "C_avg: %v", err)
		return
	}
	report.GeneralizationPrecision = rel.precision
	writeJSON(w, http.StatusOK, report)
}

// decodeJSON parses a JSON request body strictly (unknown fields are errors,
// so typos in parameter names surface instead of silently defaulting). It
// writes the error envelope itself and reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", "%v", err)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad_json", "decode request: %v", err)
		return false
	}
	return true
}

package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/jobs"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/republish"
	"github.com/ppdp/ppdp/internal/store"
)

// This file is the durable half of the release-reconciler subsystem: release
// specs. A spec declares desired state — "keep a release of dataset D under
// algorithm A and policy P" — and the reconcile.Manager (the runtime half,
// internal/reconcile) re-publishes the spec's release whenever the dataset
// moves to a new generation. The registry owns every durable transition: spec
// create/delete, the atomic release swap of a successful reconciliation, and
// the m-invariance release history that gives the "republish" algorithm its
// sequential mode.

// storedSpec is one release spec: the journaled specMeta plus the live
// signature index. Fields are guarded by the registry mutex; the reconciler
// serializes runs per spec, so at most one reconciliation mutates a spec at
// a time. The declaration (Tenant, Dataset, Algorithm, PolicyRef, the pinned
// Policy, Params) never changes after putSpec; ReleaseID, ReconGen, ReconFP,
// History and the invariance verdict are the reconciliation-owned fields.
type storedSpec struct {
	name string
	specMeta
	// live is the publisher's signature index after the last landed release
	// (nil for other algorithms, and until the first m-invariance
	// reconciliation after creation, a restart or a dropped swap). A
	// reconciliation publishes from it and checks only the new release
	// against it; swapSpecRelease replaces it when the release lands. With
	// no live index the reconciliation first restores one from History,
	// re-validating every stored release.
	live *republish.Index
}

// mInvariance returns the spec's m-invariance criterion, if its policy
// declares one — the switch between the one-shot engine path and the
// sequential republish path.
func (sp *storedSpec) mInvariance() (policy.Criterion, bool) {
	if sp.Policy == nil {
		return policy.Criterion{}, false
	}
	return sp.Policy.Find(policy.MInvariance)
}

// ---- registry: spec CRUD ----

// putSpec stores a new spec (specs are immutable declarations; changing one
// means delete + create). The watched dataset must exist under the same lock
// that deleteDataset uses for its spec check, so a spec can never be created
// against a dataset that is concurrently deleted.
func (r *registry) putSpec(sp *storedSpec) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.specs.admit(sp.name); err != nil {
		return err
	}
	if _, err := r.datasets.lookup(sp.Dataset); err != nil {
		return err
	}
	if err := r.journalSpec(sp); err != nil {
		return err
	}
	r.specs.put(sp.name, sp)
	return nil
}

// deleteSpec removes a spec and cascades to the release it owns: the release
// exists to satisfy the spec, and spec-owned releases cannot be deleted
// directly, so an orphan could never be removed. Each entry leaves
// memory exactly when its delete is journaled; a release whose delete fails
// after its spec's succeeded is a straggler recovery drops.
func (r *registry) deleteSpec(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp, err := r.specs.lookup(name)
	if err != nil {
		return err
	}
	if err := drop(r, &r.specs, name); err != nil || sp.ReleaseID == "" {
		return err
	}
	return drop(r, &r.releases, sp.ReleaseID)
}

// specRun is a consistent snapshot of everything one reconciliation needs,
// taken under the registry read lock so the expensive work (anonymizing,
// sequential publication) runs without holding it.
type specRun struct {
	name string
	// specMeta is a copy of the spec's record; with spec and live it is the
	// spec's m-invariance state as of the snapshot, and swapSpecRelease
	// refuses a release built on a state that has since moved on.
	specMeta
	ds   *storedDataset
	spec *storedSpec
	live *republish.Index
}

// specRunSnapshot captures a spec and its dataset for one reconciliation.
func (r *registry) specRunSnapshot(name string) (*specRun, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sp, err := r.specs.lookup(name)
	if err != nil {
		return nil, err
	}
	ds, err := r.datasets.lookup(sp.Dataset)
	if err != nil {
		return nil, err
	}
	run := &specRun{name: sp.name, specMeta: sp.specMeta, ds: ds, spec: sp, live: sp.live}
	run.History = append([]specHistoryMeta(nil), sp.History...)
	return run, nil
}

// errSpecSuperseded refuses an m-invariance release built on a history that
// changed while it ran; the manager retries on the current state.
var errSpecSuperseded = errors.New("spec history moved mid-reconciliation")

// seqOutcome is what an m-invariance reconciliation hands the swap: the new
// history entry (its table fingerprints are filled in when the tables are
// persisted), the index to commit, and the invariance verdict.
type seqOutcome struct {
	entry     specHistoryMeta
	next      *republish.Index
	invariant bool
	detail    string
}

// swapSpecRelease atomically lands one successful reconciliation: the new
// release is journaled under a fresh id, the spec record is journaled
// pointing at it (with the advanced generation, fingerprint and — for
// m-invariance — the grown history), and the superseded release is journaled
// deleted, all under one hold of the registry write lock. Readers therefore
// observe either the old release id or the new one, never neither; and a
// crash between the journal appends recovers to a state the recovery loop
// reconciles (a release whose owning spec does not reference it is dropped).
// An m-invariance swap commits seq.next as the spec's live index only once
// the release has landed; a swap dropped after the spec changed in memory
// clears the live index, so the next reconciliation re-validates the stored
// history from scratch.
func (r *registry) swapSpecRelease(run *specRun, rel *storedRelease, seq *seqOutcome, gen uint64, fp string) (string, error) {
	name := run.name
	rel.spec = name
	rec, err := r.prepareRelease(rel)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp, err := r.specs.lookup(name)
	if err != nil {
		return "", fmt.Errorf("%w (deleted mid-reconciliation)", err)
	}
	if seq != nil && (sp != run.spec || len(sp.History) != len(run.History)) {
		return "", fmt.Errorf("%w: %q", errSpecSuperseded, name)
	}
	// The swap replaces the old release, so occupancy only grows for the
	// spec's first release.
	if sp.ReleaseID == "" {
		if err := r.releases.room(); err != nil {
			return "", err
		}
	}
	if err := r.assignRelease(rel, rec); err != nil {
		return "", err
	}
	// The reconciliation-owned fields, for a rollback; the declaration fields
	// are read without the lock and must never be written.
	oldID, oldGen, oldFP := sp.ReleaseID, sp.ReconGen, sp.ReconFP
	oldHistory, oldInvariant, oldDetail := sp.History, sp.Invariant, sp.InvariantDetail
	sp.ReleaseID = rel.id
	if gen > sp.ReconGen {
		sp.ReconGen, sp.ReconFP = gen, fp
	}
	if seq != nil {
		entry := seq.entry
		entry.QITFP, entry.STFP = rec.meta.QITFP, rec.meta.STFP
		sp.History = append(sp.History, entry)
		sp.Invariant, sp.InvariantDetail = seq.invariant, seq.detail
	}
	if err := r.journalSpec(sp); err != nil {
		// Roll the spec back and un-journal the release so memory and
		// acknowledged history stay aligned; the manager retries, and
		// without a live index the retry re-validates the history. A failed
		// delete leaves a release record no spec references, which recovery
		// drops.
		sp.ReleaseID, sp.ReconGen, sp.ReconFP = oldID, oldGen, oldFP
		sp.History, sp.Invariant, sp.InvariantDetail = oldHistory, oldInvariant, oldDetail
		if seq != nil {
			sp.live = nil
		}
		_ = r.journal(store.Op{Op: store.OpDelete, Kind: store.KindRelease, Key: rel.id}, nil)
		return "", err
	}
	if seq != nil {
		sp.live = seq.next
	}
	r.releases.put(rel.id, rel)
	if oldID != "" {
		// A failed delete journal leaves a superseded release record
		// behind; recovery drops releases their owning spec no longer
		// references, so this is not propagated as a swap failure, and the
		// release leaves memory regardless.
		_ = r.journal(store.Op{Op: store.OpDelete, Kind: store.KindRelease, Key: oldID}, nil)
		r.releases.remove(oldID)
	}
	return rel.id, nil
}

// markSpecSynced records a reconciliation that produced no new release (the
// fingerprint short-circuit): the dataset generation advanced but its bytes
// are identical to what the current release reflects. The bump is journaled
// so the short-circuit survives a restart.
func (r *registry) markSpecSynced(name string, gen uint64, fp string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp, err := r.specs.lookup(name)
	if err != nil || gen <= sp.ReconGen {
		return err
	}
	old, oldFP := sp.ReconGen, sp.ReconFP
	sp.ReconGen, sp.ReconFP = gen, fp
	if err := r.journalSpec(sp); err != nil {
		sp.ReconGen, sp.ReconFP = old, oldFP
		return err
	}
	return nil
}

// ---- persistence ----

// specMeta is the journaled form of one release spec. The m-invariance
// history is stored as metadata only: ST rows are emitted per bucket in
// signature order, so ReleaseFromTables reconstructs signatures exactly from
// the QIT/ST snapshots whenever the history has to be re-validated.
type specMeta struct {
	Tenant    string         `json:"tenant,omitempty"`
	Dataset   string         `json:"dataset"`
	Algorithm core.Algorithm `json:"algorithm"`
	// PolicyRef names the stored policy the spec referenced at creation; the
	// enforced document itself is pinned on Policy (resolving at creation
	// means a later delete or re-create of the name never changes what the
	// spec republishes).
	PolicyRef string           `json:"policy_ref,omitempty"`
	Policy    *policy.Policy   `json:"policy"`
	Params    anonymizeRequest `json:"params"`
	// ReleaseID is the spec's current release ("" until the first
	// reconciliation lands); ReconGen/ReconFP are the dataset generation and
	// content fingerprint that release reflects.
	ReleaseID string `json:"release_id,omitempty"`
	ReconGen  uint64 `json:"reconciled_generation"`
	ReconFP   string `json:"reconciled_fp,omitempty"`
	// History is the m-invariance release sequence (nil for other
	// algorithms), one entry per landed release: version, QIT/ST
	// fingerprints, rows and counterfeits. The tables themselves stay in the
	// store; they are read back only when live is nil and the chain has to be
	// re-validated.
	History []specHistoryMeta `json:"history,omitempty"`
	// Invariant records the latest cross-release m-invariance check.
	Invariant       bool   `json:"invariant,omitempty"`
	InvariantDetail string `json:"invariant_detail,omitempty"`
	CreatedUnix     int64  `json:"created_unix_ns"`
}

// specHistoryMeta describes one historical m-invariance release: its
// snapshot fingerprints plus the row and counterfeit counts GET
// /v1/specs/{name} reports, so serving them never touches the tables. The
// fingerprints are empty without a data directory. Records journaled before
// the counts were kept carry rows 0; recovery derives them from the tables.
type specHistoryMeta struct {
	Version      int    `json:"version"`
	QITFP        string `json:"qit_fp"`
	STFP         string `json:"st_fp"`
	Rows         int    `json:"rows"`
	Counterfeits int    `json:"counterfeits"`
}

// journalSpec journals a spec put under the registry write lock. History
// tables must already be durable — they always are, because every history
// entry was first journaled as that reconciliation's release (PutTable is
// content-addressed, so the spec record referencing the same fingerprints
// keeps the snapshots alive after the release record is superseded).
func (r *registry) journalSpec(sp *storedSpec) error {
	tables := make([]string, 0, 2*len(sp.History))
	for _, h := range sp.History {
		tables = append(tables, h.QITFP, h.STFP)
	}
	return r.journal(store.Op{Op: store.OpPut, Kind: store.KindSpec, Key: sp.name, Tables: tables}, sp.specMeta)
}

// trackRecoveredSpecs hands every recovered spec to the reconcile manager
// with its dataset's current generation. A spec whose dataset moved while
// the server was down (or whose last reconciliation never landed) starts
// catching up immediately.
func (s *Server) trackRecoveredSpecs() {
	for _, sp := range s.reg.specs.list() {
		var gen uint64
		var fp string
		if ds, err := s.reg.datasets.get(sp.Dataset); err == nil {
			gen, fp = ds.Generation, ds.fp
		}
		s.recon.Track(sp.name, sp.Dataset, gen, fp, sp.ReconGen, sp.ReconFP)
	}
}

// ---- reconcile engine ----

// reconEngine implements reconcile.Engine on the server: Enqueue routes
// reconciliations through the shared job executor (one admission policy for
// interactive and reconciler work), Publish runs the spec's pipeline and
// swaps its release, and Noop journals fingerprint short-circuits.
type reconEngine struct{ s *Server }

func (e reconEngine) Enqueue(name string, run func(ctx context.Context)) error {
	sp, err := e.s.reg.specs.get(name)
	if err != nil {
		return err
	}
	timeout := e.s.cfg.RequestTimeout
	if sp.Params.TimeoutMS > 0 {
		if d := time.Duration(sp.Params.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	_, err = e.s.jobs.Submit(func(ctx context.Context, progress func(done, total int)) (any, error) {
		run(ctx)
		return nil, nil
	}, jobs.Options{
		Tenant: sp.Tenant,
		Meta: jobMeta{
			spec:      name,
			dataset:   sp.Dataset,
			algorithm: string(sp.Algorithm),
			policyRef: sp.PolicyRef,
		},
		Timeout: timeout,
	})
	return err
}

func (e reconEngine) Publish(ctx context.Context, name string) (uint64, string, error) {
	return e.s.reconcilePublish(ctx, name)
}

func (e reconEngine) Noop(name string, gen uint64, fp string) error {
	return e.s.reg.markSpecSynced(name, gen, fp)
}

// reconcilePublish runs one reconciliation of a spec against its dataset's
// current state and atomically swaps the spec's release. It returns the
// dataset generation and fingerprint the new release reflects — read from
// the same snapshot the run consumed, so a dataset that advances while the
// job is queued simply leaves residual lag for the manager's finish re-check.
func (s *Server) reconcilePublish(ctx context.Context, name string) (uint64, string, error) {
	if s.runGate != nil {
		s.runGate(ctx)
	}
	run, err := s.reg.specRunSnapshot(name)
	if err != nil {
		return 0, "", err
	}
	gen, fp := run.ds.Generation, run.ds.fp
	start := time.Now()
	var rel *core.Release
	var seq *seqOutcome
	if c, ok := run.Policy.Find(policy.MInvariance); ok {
		seq, rel, err = s.sequentialPublish(ctx, run, c)
	} else {
		rel, err = s.oneShotPublish(ctx, run)
	}
	elapsed := time.Since(start)
	if err != nil {
		return 0, "", err
	}
	stored := &storedRelease{
		dataset:   run.Dataset,
		family:    run.ds.Family,
		precision: generalizationPrecision(rel, run.Params.QuasiIdentifiers, run.ds.hier),
		algorithm: run.Algorithm,
		policyRef: run.PolicyRef,
		params:    run.Params,
		release:   rel,
		elapsed:   elapsed,
		created:   time.Now(),
	}
	if _, err := s.reg.swapSpecRelease(run, stored, seq, gen, fp); err != nil {
		return 0, "", err
	}
	return gen, fp, nil
}

// oneShotPublish reconciles a stateless spec: the spec's declaration
// rebuilds its pipeline through the same constructor POST /v1/anonymize uses
// (the pinned policy for a policy or policy_ref spec, the persisted flat
// parameters otherwise), and the dataset's current table runs through it.
func (s *Server) oneShotPublish(ctx context.Context, run *specRun) (*core.Release, error) {
	alg, err := engine.Lookup(string(run.Algorithm))
	if err != nil {
		return nil, err
	}
	explicit := run.Policy
	if run.Params.Policy == nil && run.Params.PolicyRef == "" {
		explicit = nil
	}
	pipe, err := s.newPipeline(alg.Describe(), run.Params, explicit, run.ds.hier)
	if err != nil {
		return nil, err
	}
	return pipe.run(ctx, run.ds.table, nil)
}

// sequentialPublish reconciles an m-invariance spec: the dataset's current
// snapshot is published as the next release from the spec's live signature
// index, and only that release is checked against the index (the earlier
// releases were checked when they landed). Without a live index the
// publisher is first restored from the stored history, re-validating every
// release against the fixed per-individual signatures — a tampered or
// non-invariant history refuses to extend. The check's verdict lands on the
// release's measurements and the spec's status; a failed verdict commits no
// live index, so the next reconciliation re-validates the whole chain.
func (s *Server) sequentialPublish(ctx context.Context, run *specRun, c policy.Criterion) (*seqOutcome, *core.Release, error) {
	sensitive := c.Sensitive
	if sensitive == "" {
		sensitive = run.Params.Sensitive
	}
	cfg := republish.Config{
		M:                c.M,
		ID:               c.ID,
		Sensitive:        sensitive,
		QuasiIdentifiers: run.Params.QuasiIdentifiers,
	}
	base := run.live
	if base == nil {
		history, err := s.reg.historyReleases(run.History)
		if err != nil {
			return nil, nil, err
		}
		restored, err := republish.Restore(cfg, history)
		if err != nil {
			return nil, nil, err
		}
		base = restored.Index()
	}
	pub, err := republish.Resume(cfg, base)
	if err != nil {
		return nil, nil, err
	}
	hist, err := pub.PublishContext(ctx, run.ds.table)
	if err != nil {
		return nil, nil, err
	}
	ok, detail := base.Check(hist, c.M)
	seq := &seqOutcome{
		entry:     specHistoryMeta{Version: hist.Version, Rows: hist.QIT.Len(), Counterfeits: hist.Counterfeits},
		invariant: ok,
		detail:    detail,
	}
	if ok {
		seq.next = pub.Index()
	}
	// Measured is the weakest signature width across individuals of the new
	// release — the effective m the history sustains.
	minSig := 0
	for _, sig := range hist.Signatures {
		if minSig == 0 || len(sig) < minSig {
			minSig = len(sig)
		}
	}
	if sensitive == "" {
		if names := run.ds.table.Schema().SensitiveNames(); len(names) > 0 {
			sensitive = names[0]
		}
	}
	rel := &core.Release{
		QIT:       hist.QIT,
		ST:        hist.ST,
		Algorithm: run.Algorithm,
		Policy:    run.Policy,
		Measured: core.Measurements{
			DistinctL: minSig,
			Criteria: map[string]core.CriterionMeasurement{
				policy.MInvariance: {
					Satisfied: ok,
					Measured:  core.Measure(minSig),
					Target:    core.Measure(c.M),
					Sensitive: sensitive,
				},
			},
		},
	}
	return seq, rel, nil
}

// historyReleases reads a spec's stored history back from the store as
// releases, for the full re-validation a reconciliation without a live index
// runs. Without a data directory there is nothing to read: such a spec only
// lacks a live index before its first release.
func (r *registry) historyReleases(history []specHistoryMeta) ([]*republish.Release, error) {
	if len(history) == 0 {
		return nil, nil
	}
	if r.st == nil {
		return nil, fmt.Errorf("server: m-invariance history of %d releases has no stored tables to re-validate", len(history))
	}
	out := make([]*republish.Release, len(history))
	for i, h := range history {
		rel, err := historyRelease(r.st, h)
		if err != nil {
			return nil, err
		}
		out[i] = rel
	}
	return out, nil
}

// historyRelease loads one history entry's QIT/ST snapshots and rebuilds the
// release from them.
func historyRelease(st *store.Store, h specHistoryMeta) (*republish.Release, error) {
	qit, err := st.Table(h.QITFP)
	if err != nil {
		return nil, fmt.Errorf("history v%d QIT: %w", h.Version, err)
	}
	stt, err := st.Table(h.STFP)
	if err != nil {
		return nil, fmt.Errorf("history v%d ST: %w", h.Version, err)
	}
	rel, err := republish.ReleaseFromTables(h.Version, qit, stt)
	if err != nil {
		return nil, fmt.Errorf("history v%d: %w", h.Version, err)
	}
	return rel, nil
}

// notifyDatasetChanged tells the reconcile manager a dataset moved. The
// caller passes the freshly stored entry after putDataset succeeded, so the
// generation and fingerprint are read without the registry lock — the manager
// takes its own lock and calls back into the registry from its goroutines,
// and notifying under the registry lock would order the two locks both ways.
func (s *Server) notifyDatasetChanged(ds *storedDataset) {
	if s.recon != nil {
		s.recon.Notify(ds.name, ds.Generation, ds.fp)
	}
}

// ---- HTTP surface ----

// specRequest is the POST /v1/specs body: a name plus the same declaration
// POST /v1/anonymize takes (dataset, algorithm, policy | policy_ref | flat
// parameters, column overrides). Store/include_rows/no_cache are accepted for
// symmetry and ignored — a spec always stores its release and never inlines
// rows.
type specRequest struct {
	Name string `json:"name"`
	anonymizeRequest
}

// specInfo is the JSON view of a release spec: the declaration, the current
// release, and the reconciler's runtime status.
type specInfo struct {
	Name      string         `json:"name"`
	Dataset   string         `json:"dataset"`
	Algorithm string         `json:"algorithm"`
	Policy    *policy.Policy `json:"policy,omitempty"`
	PolicyRef string         `json:"policy_ref,omitempty"`
	ReleaseID string         `json:"release_id,omitempty"`
	// State is the reconciler's view: idle, running or backoff.
	State     string `json:"state"`
	Retries   int    `json:"retries,omitempty"`
	LastError string `json:"last_error,omitempty"`
	// DatasetGeneration / ReconciledGeneration expose the spec's lag.
	DatasetGeneration    uint64    `json:"dataset_generation"`
	ReconciledGeneration uint64    `json:"reconciled_generation"`
	Created              time.Time `json:"created"`
	// History and Invariant are present for m-invariance specs: the release
	// sequence so far and the latest cross-release signature check.
	History   []specHistoryJSON `json:"history,omitempty"`
	Invariant *invariantJSON    `json:"invariant,omitempty"`
}

// specHistoryJSON summarizes one historical m-invariance release.
type specHistoryJSON struct {
	Version      int `json:"version"`
	Rows         int `json:"rows"`
	Counterfeits int `json:"counterfeits"`
}

// invariantJSON is the latest cross-release m-invariance verdict.
type invariantJSON struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (s *Server) specJSON(sp *storedSpec) specInfo {
	// The reconciler mutates the release pointer, history and invariance
	// verdict under the registry write lock (swapSpecRelease), so the render
	// snapshots them under the read lock. The declaration fields are
	// immutable after putSpec and need no protection.
	s.reg.mu.RLock()
	info := specInfo{
		Name:      sp.name,
		Dataset:   sp.Dataset,
		Algorithm: string(sp.Algorithm),
		Policy:    sp.Policy,
		PolicyRef: sp.PolicyRef,
		ReleaseID: sp.ReleaseID,
		State:     "idle",
		Created:   time.Unix(0, sp.CreatedUnix),
	}
	if _, ok := sp.mInvariance(); ok {
		for _, h := range sp.History {
			info.History = append(info.History, specHistoryJSON{
				Version:      h.Version,
				Rows:         h.Rows,
				Counterfeits: h.Counterfeits,
			})
		}
		if len(sp.History) > 0 {
			info.Invariant = &invariantJSON{OK: sp.Invariant, Detail: sp.InvariantDetail}
		}
	}
	s.reg.mu.RUnlock()
	if st, ok := s.recon.Status(sp.name); ok {
		info.State = st.State
		info.Retries = st.Retries
		info.LastError = st.LastError
		info.DatasetGeneration = st.DatasetGeneration
		info.ReconciledGeneration = st.ReconciledGeneration
	}
	return info
}

// handleCreateSpec declares a release spec. The request validates exactly
// like an anonymize request (the policy is resolved and pinned here, so a
// later policy delete never changes what the spec republishes); on success
// the spec is journaled and handed to the reconciler, which publishes the
// first release asynchronously — poll GET /v1/specs/{name} for release_id.
func (s *Server) handleCreateSpec(w http.ResponseWriter, r *http.Request) {
	var req specRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "name is required")
		return
	}
	p := s.prepareAnonymize(w, req.anonymizeRequest)
	if p == nil {
		return
	}
	sp := &storedSpec{name: req.Name, specMeta: specMeta{
		Tenant:      tenantOf(r),
		Dataset:     req.Dataset,
		Algorithm:   p.alg,
		PolicyRef:   p.policyRef,
		Policy:      p.declared,
		Params:      req.anonymizeRequest,
		CreatedUnix: time.Now().UnixNano(),
	}}
	if err := s.reg.putSpec(sp); err != nil {
		writeRegistryError(w, err)
		return
	}
	// Seed the control loop with the dataset's current generation; reconGen 0
	// means the first reconciliation starts immediately.
	s.recon.Track(sp.name, sp.Dataset, p.ds.Generation, p.ds.fp, 0, "")
	w.Header().Set("Location", "/v1/specs/"+sp.name)
	writeJSON(w, http.StatusCreated, s.specJSON(sp))
}

func (s *Server) handleListSpecs(w http.ResponseWriter, r *http.Request) {
	serveList(w, "specs", s.reg.specs.list(), func(sp *storedSpec) specInfo {
		// Listings stay summaries, like jobs: the policy document is served
		// by GET /v1/specs/{name}.
		info := s.specJSON(sp)
		info.Policy = nil
		return info
	})
}

func (s *Server) handleGetSpec(w http.ResponseWriter, r *http.Request) {
	serveGet(w, &s.reg.specs, r.PathValue("name"), s.specJSON)
}

// handleDeleteSpec removes a spec, cascading to the release it owns. The
// manager forgets the spec first so no new reconciliation starts; one already
// in flight finds the spec gone at swap time and its outcome is dropped.
func (s *Server) handleDeleteSpec(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.recon.Forget(name)
	serveDelete(w, s.reg.deleteSpec(name))
}

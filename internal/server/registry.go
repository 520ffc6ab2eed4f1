package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/store"
)

// Registry errors.
var (
	errDatasetExists     = errors.New("dataset already exists")
	errDatasetMissing    = errors.New("dataset not found")
	errReleaseMissing    = errors.New("release not found")
	errPolicyExists      = errors.New("policy already exists")
	errPolicyMissing     = errors.New("policy not found")
	errDatasetReferred   = errors.New("dataset is referenced by stored releases")
	errDatasetSpecPinned = errors.New("dataset is watched by release specs")
	errSpecExists        = errors.New("spec already exists")
	errSpecMissing       = errors.New("spec not found")
	errRegistryFull      = errors.New("registry is full")
	errTenantQuota       = errors.New("tenant dataset quota exceeded")
)

// Default registry occupancy caps (see Config.MaxDatasets/MaxReleases/
// MaxPolicies). Datasets and stored releases retain full tables, so without
// a bound a client looping generate/store requests would defeat the
// per-request size limits and exhaust the process. The caps are generous for
// interactive and batch use; delete entries (or restart) to reclaim space.
// Policies are tiny but capped anyway so the name space cannot grow without
// bound.
const (
	DefaultMaxDatasets = 128
	DefaultMaxReleases = 1024
	DefaultMaxPolicies = 256
)

// maxSpecs caps stored release specs. Specs are small records, but each one
// pins a release and schedules work on every dataset change, so the name
// space stays bounded like the other kinds.
const maxSpecs = 256

// storedDataset is one named table in the registry together with the
// hierarchy set used to anonymize and score it. The table is treated as
// immutable once stored: handlers only read it (reads build the shared
// columnar caches, which are internally synchronized).
type storedDataset struct {
	name   string
	family string
	// tenant records who stored the dataset ("" for unauthenticated uploads
	// and preloads); the per-tenant dataset quota counts entries by it.
	tenant  string
	table   *dataset.Table
	hier    *hierarchy.Set
	created time.Time
	// generation counts the dataset's content versions: 1 at creation,
	// incremented on every PUT replace and row append. The reconciler uses it
	// to decide whether a spec's release is stale.
	generation uint64
	// fp is the table's content fingerprint, captured when the dataset is
	// stored (it doubles as the snapshot address under -data-dir). The
	// reconciler's byte-identical short-circuit compares it across
	// generations.
	fp string
}

// storedRelease is one anonymization result kept for later report queries.
type storedRelease struct {
	id  string
	seq int
	// dataset is the registry name the release was built from; origin is
	// the dataset snapshot actually used. Reports read origin, so a
	// dataset replaced while the anonymization was in flight cannot make a
	// release compare itself against a table it was not built from.
	dataset   string
	origin    *storedDataset
	algorithm core.Algorithm
	// policyRef is the stored-policy name the request referenced, if any;
	// the enforced snapshot itself travels on release.Policy.
	policyRef string
	params    anonymizeRequest
	release   *core.Release
	elapsed   time.Duration
	created   time.Time
	// spec names the release spec that owns this release ("" for ad-hoc
	// releases). Spec-owned releases are re-published by the reconciler when
	// their dataset moves, so they do not block PUT replace or row appends
	// the way ad-hoc releases do — the reconciler is the one mutating them.
	spec string
}

// storedPolicy is one named privacy policy kept for reuse by policy_ref.
// The policy is stored in canonical form and treated as immutable: runs that
// reference it pin the pointer as their snapshot, so deleting or re-creating
// the name later never changes what an in-flight or finished run enforced.
type storedPolicy struct {
	name    string
	policy  *policy.Policy
	created time.Time
}

// registry is the concurrent in-memory store behind the service. A single
// RWMutex suffices because handlers hold it only for map operations; the
// expensive work (parsing, anonymizing, measuring) happens outside the lock,
// so concurrent anonymize requests over one dataset do not serialize.
type registry struct {
	mu       sync.RWMutex
	datasets map[string]*storedDataset
	releases map[string]*storedRelease
	policies map[string]*storedPolicy
	specs    map[string]*storedSpec
	nextID   int

	// Occupancy caps, resolved from the Config (or the defaults) at
	// construction.
	maxDatasets int
	maxReleases int
	maxPolicies int

	// st, when non-nil, is the durable store every mutation writes through
	// to: the op is journaled (append + fsync) under the write lock before
	// the map changes, so an acknowledged response is always recoverable and
	// replay order matches apply order. Table snapshots are persisted before
	// the journaling, outside the lock (see persist.go).
	st *store.Store

	// failSpecPersist, while positive, fails that many upcoming spec
	// journal writes before they reach the store: fault injection for the
	// swap-rollback tests.
	failSpecPersist atomic.Int32
}

func newRegistry(maxDatasets, maxReleases, maxPolicies int) *registry {
	if maxDatasets <= 0 {
		maxDatasets = DefaultMaxDatasets
	}
	if maxReleases <= 0 {
		maxReleases = DefaultMaxReleases
	}
	if maxPolicies <= 0 {
		maxPolicies = DefaultMaxPolicies
	}
	return &registry{
		datasets:    make(map[string]*storedDataset),
		releases:    make(map[string]*storedRelease),
		policies:    make(map[string]*storedPolicy),
		specs:       make(map[string]*storedSpec),
		maxDatasets: maxDatasets,
		maxReleases: maxReleases,
		maxPolicies: maxPolicies,
	}
}

// counts reports registry occupancy for /healthz.
func (r *registry) counts() (datasets, releases, policies int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.datasets), len(r.releases), len(r.policies)
}

// putPolicy stores a policy under a free name (policies are immutable;
// replacing means delete + create).
func (r *registry) putPolicy(sp *storedPolicy) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.policies[sp.name]; ok {
		return fmt.Errorf("%w: %q", errPolicyExists, sp.name)
	}
	if len(r.policies) >= r.maxPolicies {
		return fmt.Errorf("%w: %d policies stored (limit %d)", errRegistryFull, len(r.policies), r.maxPolicies)
	}
	if r.st != nil {
		if err := r.persistPolicy(sp); err != nil {
			return err
		}
	}
	r.policies[sp.name] = sp
	return nil
}

// getPolicy looks a policy up by name.
func (r *registry) getPolicy(name string) (*storedPolicy, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sp, ok := r.policies[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errPolicyMissing, name)
	}
	return sp, nil
}

// listPolicies returns every stored policy in name order.
func (r *registry) listPolicies() []*storedPolicy {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*storedPolicy, 0, len(r.policies))
	for _, sp := range r.policies {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// deletePolicy removes a stored policy. Runs and releases that referenced it
// keep their pinned snapshot, so no referential check is needed.
func (r *registry) deletePolicy(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.policies[name]; !ok {
		return fmt.Errorf("%w: %q", errPolicyMissing, name)
	}
	if r.st != nil {
		if err := r.persistDelete(store.KindPolicy, name); err != nil {
			return err
		}
	}
	delete(r.policies, name)
	return nil
}

// putDataset stores ds. When replace is false a name collision fails with
// errDatasetExists. Even with replace, a dataset that ad-hoc stored releases
// still reference is protected — swapping the table underneath them would
// silently corrupt their utility reports, the same breakage deleteDataset
// refuses. Releases owned by a release spec are exempt: the reconciler
// re-publishes them from the new content, which is exactly what replacing a
// watched dataset asks for (each spec-owned release pins its own origin
// snapshot, so reports stay correct mid-reconciliation). maxPerTenant, when
// positive, caps how many datasets ds.tenant may hold (replacing one's own
// dataset never consumes quota).
func (r *registry) putDataset(ds *storedDataset, replace bool, maxPerTenant int) error {
	// Persist the table snapshot before taking the lock: encoding is the
	// expensive part and PutTable is content-addressed and idempotent, so a
	// put whose op is then rejected below leaves at worst an unreferenced
	// snapshot for the next checkpoint's GC. The snapshot address doubles as
	// the content fingerprint; without a store it is computed directly (and
	// cached on the table).
	if r.st != nil {
		fp, err := r.st.PutTable(ds.table)
		if err != nil {
			return fmt.Errorf("%w: %v", errPersist, err)
		}
		ds.fp = fp
	} else if ds.table != nil { // registry unit tests store table-less stubs
		ds.fp = ds.table.Fingerprint()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	existing, exists := r.datasets[ds.name]
	ds.generation = 1
	if exists {
		if !replace {
			return fmt.Errorf("%w: %q", errDatasetExists, ds.name)
		}
		for _, rel := range r.releases {
			if rel.dataset == ds.name && rel.spec == "" {
				return fmt.Errorf("%w: %q (release %s)", errDatasetReferred, ds.name, rel.id)
			}
		}
		ds.generation = existing.generation + 1
	} else if len(r.datasets) >= r.maxDatasets {
		return fmt.Errorf("%w: %d datasets stored (limit %d)", errRegistryFull, len(r.datasets), r.maxDatasets)
	}
	if maxPerTenant > 0 {
		owned := r.tenantDatasetsLocked(ds.tenant)
		if exists && existing.tenant == ds.tenant {
			owned-- // replacing one of its own entries frees that slot
		}
		if owned >= maxPerTenant {
			return fmt.Errorf("%w: tenant %q holds %d datasets (limit %d)",
				errTenantQuota, ds.tenant, owned, maxPerTenant)
		}
	}
	if r.st != nil {
		if err := r.persistDataset(ds); err != nil {
			return err
		}
	}
	r.datasets[ds.name] = ds
	return nil
}

// tenantDatasetsLocked counts datasets owned by a tenant; the registry mutex
// must be held (read or write).
func (r *registry) tenantDatasetsLocked(tenant string) int {
	n := 0
	for _, ds := range r.datasets {
		if ds.tenant == tenant {
			n++
		}
	}
	return n
}

// canCreateDataset is a cheap advisory pre-check (name free, under caps) so
// handlers can refuse before doing expensive generation work. putDataset
// remains the authoritative check under the write lock.
func (r *registry) canCreateDataset(name, tenant string, maxPerTenant int) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, ok := r.datasets[name]; ok {
		return fmt.Errorf("%w: %q", errDatasetExists, name)
	}
	if len(r.datasets) >= r.maxDatasets {
		return fmt.Errorf("%w: %d datasets stored (limit %d)", errRegistryFull, len(r.datasets), r.maxDatasets)
	}
	if maxPerTenant > 0 {
		if owned := r.tenantDatasetsLocked(tenant); owned >= maxPerTenant {
			return fmt.Errorf("%w: tenant %q holds %d datasets (limit %d)",
				errTenantQuota, tenant, owned, maxPerTenant)
		}
	}
	return nil
}

// getDataset looks a dataset up by name.
func (r *registry) getDataset(name string) (*storedDataset, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ds, ok := r.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errDatasetMissing, name)
	}
	return ds, nil
}

// listDatasets returns every stored dataset in name order.
func (r *registry) listDatasets() []*storedDataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*storedDataset, 0, len(r.datasets))
	for _, ds := range r.datasets {
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// deleteDataset removes a dataset. Datasets still referenced by a stored
// release are protected: deleting them would silently break the release's
// utility reports. Datasets watched by a release spec are protected too —
// the spec's whole purpose is to keep a release in sync with the dataset, so
// the spec must be deleted first (the error carries the machine-readable
// spec_pinned code; cascade-pausing specs instead was rejected as too easy to
// trip silently).
func (r *registry) deleteDataset(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.datasets[name]; !ok {
		return fmt.Errorf("%w: %q", errDatasetMissing, name)
	}
	for _, sp := range r.specs {
		if sp.dataset == name {
			return fmt.Errorf("%w: %q (spec %s)", errDatasetSpecPinned, name, sp.name)
		}
	}
	for _, rel := range r.releases {
		if rel.dataset == name {
			return fmt.Errorf("%w: %q (release %s)", errDatasetReferred, name, rel.id)
		}
	}
	if r.st != nil {
		if err := r.persistDelete(store.KindDataset, name); err != nil {
			return err
		}
	}
	delete(r.datasets, name)
	return nil
}

// putRelease stores a release and assigns it a process-unique id. With
// persistence enabled, the published tables become durable content-addressed
// snapshots first (outside the lock), then the release record is journaled
// under the freshly assigned id before the map changes — so a client that
// received a release id can always fetch that release after a crash.
func (r *registry) putRelease(rel *storedRelease) (string, error) {
	var originFP string
	var fps releaseTableFPs
	if r.st != nil {
		var err error
		if originFP, fps, err = r.persistReleaseTables(rel); err != nil {
			return "", err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.releases) >= r.maxReleases {
		return "", fmt.Errorf("%w: %d releases stored (limit %d)", errRegistryFull, len(r.releases), r.maxReleases)
	}
	r.nextID++
	rel.seq = r.nextID
	rel.id = fmt.Sprintf("r%d", r.nextID)
	if r.st != nil {
		if err := r.persistRelease(rel, originFP, fps); err != nil {
			// The journal refused: the id was never acknowledged anywhere, so
			// it is safe to hand the same number to the next attempt.
			r.nextID--
			return "", err
		}
	}
	r.releases[rel.id] = rel
	return rel.id, nil
}

// errReleaseSpecOwned refuses deleting a release out from under the spec
// that continuously republishes it.
var errReleaseSpecOwned = errors.New("release is managed by a spec")

// deleteRelease removes a stored release, unpinning its dataset. Releases
// owned by a release spec are deleted through DELETE /v1/specs/{name}, which
// cascades; removing one directly would leave the spec pointing at nothing.
func (r *registry) deleteRelease(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rel, ok := r.releases[id]
	if !ok {
		return fmt.Errorf("%w: %q", errReleaseMissing, id)
	}
	if rel.spec != "" {
		return fmt.Errorf("%w: %q (spec %s)", errReleaseSpecOwned, id, rel.spec)
	}
	if r.st != nil {
		if err := r.persistDelete(store.KindRelease, id); err != nil {
			return err
		}
	}
	delete(r.releases, id)
	return nil
}

// getRelease looks a release up by id.
func (r *registry) getRelease(id string) (*storedRelease, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rel, ok := r.releases[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errReleaseMissing, id)
	}
	return rel, nil
}

// AddDataset registers a table (with the hierarchy set used to anonymize and
// score it) under a name before the server starts taking traffic — the
// programmatic equivalent of POST /v1/datasets, used by `ppdp serve -preload`
// and embedding callers. It fails when the name is already taken.
func (s *Server) AddDataset(name, family string, tbl *dataset.Table, hs *hierarchy.Set) error {
	if name == "" {
		return errors.New("server: dataset name is required")
	}
	if tbl == nil {
		return errors.New("server: dataset table is required")
	}
	tbl.SetScanWorkers(s.scanWorkers())
	return s.reg.putDataset(&storedDataset{
		name: name, family: family, table: tbl, hier: hs, created: time.Now(),
	}, false, 0)
}

// listReleases returns every stored release in creation order (ids are a
// counter, so the sequence number is a total order).
func (r *registry) listReleases() []*storedRelease {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*storedRelease, 0, len(r.releases))
	for _, rel := range r.releases {
		out = append(out, rel)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

package server

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/store"
)

// Registry errors. A missing or taken name wraps errNotFound or errExists
// with its kind (`dataset not found: "x"`, see collection).
var (
	errNotFound          = errors.New("not found")
	errExists            = errors.New("already exists")
	errDatasetReferred   = errors.New("dataset is referenced by stored releases")
	errDatasetSpecPinned = errors.New("dataset is watched by release specs")
	errReleaseSpecOwned  = errors.New("release is managed by a spec")
	errRegistryFull      = errors.New("registry is full")
	errTenantQuota       = errors.New("tenant dataset quota exceeded")
	// errDatasetMoved refuses a put whose base is no longer the stored entry;
	// the caller re-reads the dataset and retries, so it never reaches a
	// client.
	errDatasetMoved = errors.New("dataset changed since it was read")
)

// registryErrors maps every registry refusal onto its HTTP status and
// envelope code: occupancy limits are 507 (free space with DELETE and
// retry), an exhausted per-tenant quota is 429 (the tenant can free its own
// entries), a pin between kinds is a 409 whose spec_pinned code tells
// automation to delete the spec first (which cascades to its release), and a
// journal failure is a 500 "storage" (the request is well-formed; the disk
// is not).
var registryErrors = []struct {
	err    error
	status int
	code   string
}{
	{errNotFound, http.StatusNotFound, "not_found"},
	{errExists, http.StatusConflict, "conflict"},
	{errDatasetReferred, http.StatusConflict, "conflict"},
	{errDatasetSpecPinned, http.StatusConflict, "spec_pinned"},
	{errReleaseSpecOwned, http.StatusConflict, "spec_pinned"},
	{errRegistryFull, http.StatusInsufficientStorage, "registry_full"},
	{errTenantQuota, http.StatusTooManyRequests, "tenant_quota"},
	{errPersist, http.StatusInternalServerError, "storage"},
}

// classifyRegistryError looks err up in registryErrors; anything else is a
// 500 "internal".
func classifyRegistryError(err error) (status int, code string) {
	for _, e := range registryErrors {
		if errors.Is(err, e.err) {
			return e.status, e.code
		}
	}
	return http.StatusInternalServerError, "internal"
}

// writeRegistryError renders a registry error as its envelope.
func writeRegistryError(w http.ResponseWriter, err error) {
	status, code := classifyRegistryError(err)
	writeError(w, status, code, "%v", err)
}

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
// columnar caches, which are internally synchronized). The embedded
// datasetMeta is what the journal records (family, tenant, generation,
// creation time); the tenant ("" for unauthenticated uploads and preloads)
// is what the per-tenant dataset quota counts, and the generation — 1 at
// creation, incremented on every PUT replace and row append — is what the
// reconciler compares to decide whether a spec's release is stale.
type storedDataset struct {
	name string
	datasetMeta
	table *dataset.Table
	hier  *hierarchy.Set
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
	// the dataset snapshot actually used. The generalization-precision
	// report reads origin's hierarchies, so a dataset replaced while the
	// anonymization was in flight cannot make a release score itself
	// against hierarchies it was not built with.
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
	name string
	policyMeta
}

// collection is one resource kind of the registry: its entries by name, its
// occupancy cap, its store kind (which also names it in error messages) and
// its list order. It shares the registry's single RWMutex: get, list and
// size lock for themselves, while lookup, admit, room, put and remove run
// under the caller's write lock, so a rule spanning kinds (dataset pins, the
// spec→release cascade, tenant quotas) checks and mutates in one critical
// section.
type collection[T any] struct {
	mu     *sync.RWMutex
	kind   string // store.Kind*
	plural string // for the cap message
	max    int
	items  map[string]T
	less   func(a, b T) bool
}

func newCollection[T any](mu *sync.RWMutex, kind, plural string, max int, less func(a, b T) bool) collection[T] {
	return collection[T]{mu: mu, kind: kind, plural: plural, max: max, items: make(map[string]T), less: less}
}

// get looks an entry up by name.
func (c *collection[T]) get(name string) (T, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lookup(name)
}

// list returns every entry in the collection's order.
func (c *collection[T]) list() []T {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]T, 0, len(c.items))
	for _, v := range c.items {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return c.less(out[i], out[j]) })
	return out
}

// size reports occupancy for /healthz and /metrics.
func (c *collection[T]) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.items)
}

// lookup is get under the caller's lock.
func (c *collection[T]) lookup(name string) (T, error) {
	v, ok := c.items[name]
	if !ok {
		return v, fmt.Errorf("%s %w: %q", c.kind, errNotFound, name)
	}
	return v, nil
}

// admit refuses a taken name or a full collection.
func (c *collection[T]) admit(name string) error {
	if _, ok := c.items[name]; ok {
		return fmt.Errorf("%s %w: %q", c.kind, errExists, name)
	}
	return c.room()
}

// room refuses one more entry in a full collection.
func (c *collection[T]) room() error {
	if len(c.items) >= c.max {
		return fmt.Errorf("%w: %d %s stored (limit %d)", errRegistryFull, len(c.items), c.plural, c.max)
	}
	return nil
}

func (c *collection[T]) put(name string, v T) { c.items[name] = v }

func (c *collection[T]) remove(name string) { delete(c.items, name) }

// registry is the concurrent in-memory store behind the service. A single
// RWMutex, shared by the four collections, suffices because handlers hold it
// only for map operations; the expensive work (parsing, anonymizing,
// measuring) happens outside the lock, so concurrent anonymize requests over
// one dataset do not serialize.
type registry struct {
	mu       sync.RWMutex
	datasets collection[*storedDataset]
	releases collection[*storedRelease]
	policies collection[*storedPolicy]
	specs    collection[*storedSpec]
	nextID   int

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
	r := &registry{}
	r.datasets = newCollection(&r.mu, store.KindDataset, "datasets", maxDatasets,
		func(a, b *storedDataset) bool { return a.name < b.name })
	// Release ids are a counter, so the sequence number is a total creation
	// order.
	r.releases = newCollection(&r.mu, store.KindRelease, "releases", maxReleases,
		func(a, b *storedRelease) bool { return a.seq < b.seq })
	r.policies = newCollection(&r.mu, store.KindPolicy, "policies", maxPolicies,
		func(a, b *storedPolicy) bool { return a.name < b.name })
	r.specs = newCollection(&r.mu, store.KindSpec, "specs", maxSpecs,
		func(a, b *storedSpec) bool { return a.name < b.name })
	return r
}

// drop journals the delete of name from c and removes the entry; the caller
// holds the write lock.
func drop[T any](r *registry, c *collection[T], name string) error {
	if err := r.journal(store.Op{Op: store.OpDelete, Kind: c.kind, Key: name}, nil); err != nil {
		return err
	}
	c.remove(name)
	return nil
}

// putPolicy stores a policy under a free name (policies are immutable;
// replacing means delete + create).
func (r *registry) putPolicy(sp *storedPolicy) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.policies.admit(sp.name); err != nil {
		return err
	}
	if err := r.journal(store.Op{Op: store.OpPut, Kind: store.KindPolicy, Key: sp.name}, sp.policyMeta); err != nil {
		return err
	}
	r.policies.put(sp.name, sp)
	return nil
}

// deletePolicy removes a stored policy. Runs and releases that referenced it
// keep their pinned snapshot, so no referential check is needed.
func (r *registry) deletePolicy(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.policies.lookup(name); err != nil {
		return err
	}
	return drop(r, &r.policies, name)
}

// putDataset stores ds. When replace is false a name collision fails with
// errExists. Even with replace, a dataset that ad-hoc stored releases
// still reference is protected — swapping the table underneath them would
// silently corrupt their utility reports, the same breakage deleteDataset
// refuses. Releases owned by a release spec are exempt: the reconciler
// re-publishes them from the new content, which is exactly what replacing a
// watched dataset asks for (each spec-owned release pins its own origin
// snapshot, so reports stay correct mid-reconciliation). maxPerTenant, when
// positive, caps how many datasets ds.Tenant may hold (replacing one's own
// dataset never consumes quota). base, when non-nil, is the entry ds was
// derived from: the put is a compare-and-swap that fails with
// errDatasetMoved unless the name still maps to base, so a read-modify-write
// never overwrites a generation it did not see.
func (r *registry) putDataset(ds *storedDataset, replace bool, base *storedDataset, maxPerTenant int) error {
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
	existing, exists := r.datasets.items[ds.name]
	if base != nil && existing != base {
		return errDatasetMoved
	}
	ds.Generation = 1
	if exists && replace {
		for _, rel := range r.releases.items {
			if rel.dataset == ds.name && rel.spec == "" {
				return fmt.Errorf("%w: %q (release %s)", errDatasetReferred, ds.name, rel.id)
			}
		}
		ds.Generation = existing.Generation + 1
	} else if err := r.datasets.admit(ds.name); err != nil {
		return err
	}
	if err := r.tenantRoom(ds.Tenant, maxPerTenant, existing); err != nil {
		return err
	}
	err := r.journal(store.Op{
		Op: store.OpPut, Kind: store.KindDataset, Key: ds.name, Tables: []string{ds.fp},
	}, ds.datasetMeta)
	if err != nil {
		return err
	}
	r.datasets.put(ds.name, ds)
	return nil
}

// tenantRoom refuses a dataset that would take tenant past maxPerTenant
// (no quota when not positive); replacing, when it belongs to the same
// tenant, is about to be replaced and frees its slot. The caller holds the
// registry lock (read or write).
func (r *registry) tenantRoom(tenant string, maxPerTenant int, replacing *storedDataset) error {
	if maxPerTenant <= 0 {
		return nil
	}
	owned := 0
	for _, ds := range r.datasets.items {
		if ds.Tenant == tenant && ds != replacing {
			owned++
		}
	}
	if owned >= maxPerTenant {
		return fmt.Errorf("%w: tenant %q holds %d datasets (limit %d)",
			errTenantQuota, tenant, owned, maxPerTenant)
	}
	return nil
}

// canCreateDataset is a cheap advisory pre-check (name free, under caps) so
// handlers can refuse before doing expensive generation work. putDataset
// remains the authoritative check under the write lock.
func (r *registry) canCreateDataset(name, tenant string, maxPerTenant int) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if err := r.datasets.admit(name); err != nil {
		return err
	}
	return r.tenantRoom(tenant, maxPerTenant, nil)
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
	if _, err := r.datasets.lookup(name); err != nil {
		return err
	}
	for _, sp := range r.specs.items {
		if sp.Dataset == name {
			return fmt.Errorf("%w: %q (spec %s)", errDatasetSpecPinned, name, sp.name)
		}
	}
	for _, rel := range r.releases.items {
		if rel.dataset == name {
			return fmt.Errorf("%w: %q (release %s)", errDatasetReferred, name, rel.id)
		}
	}
	return drop(r, &r.datasets, name)
}

// putRelease stores a release and assigns it a process-unique id. With
// persistence enabled, the published tables become durable content-addressed
// snapshots first (outside the lock), then the release record is journaled
// under the freshly assigned id before the map changes — so a client that
// received a release id can always fetch that release after a crash.
func (r *registry) putRelease(rel *storedRelease) (string, error) {
	rec, err := r.prepareRelease(rel)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.releases.room(); err != nil {
		return "", err
	}
	if err := r.assignRelease(rel, rec); err != nil {
		return "", err
	}
	r.releases.put(rel.id, rel)
	return rel.id, nil
}

// assignRelease gives rel the next release id and journals its record; the
// caller holds the write lock and puts rel into the map.
func (r *registry) assignRelease(rel *storedRelease, rec releaseRecord) error {
	r.nextID++
	rel.seq = r.nextID
	rel.id = fmt.Sprintf("r%d", r.nextID)
	rec.meta.Seq = rel.seq
	err := r.journal(store.Op{
		Op: store.OpPut, Kind: store.KindRelease, Key: rel.id, Seq: uint64(rel.seq), Tables: rec.tables,
	}, rec.meta)
	if err != nil {
		// The journal refused: the id was never acknowledged anywhere, so
		// it is safe to hand the same number to the next attempt.
		r.nextID--
	}
	return err
}

// deleteRelease removes a stored release, unpinning its dataset. Releases
// owned by a release spec are deleted through DELETE /v1/specs/{name}, which
// cascades; removing one directly would leave the spec pointing at nothing.
func (r *registry) deleteRelease(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rel, err := r.releases.lookup(id)
	if err != nil {
		return err
	}
	if rel.spec != "" {
		return fmt.Errorf("%w: %q (spec %s); delete the spec to remove its release", errReleaseSpecOwned, id, rel.spec)
	}
	return drop(r, &r.releases, id)
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
		name: name, table: tbl, hier: hs,
		datasetMeta: datasetMeta{Family: family, CreatedUnix: time.Now().UnixNano()},
	}, false, nil, 0)
}

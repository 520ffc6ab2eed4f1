package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/store"
	"github.com/ppdp/ppdp/internal/synth"
)

// This file bridges the in-memory registry to the durable store
// (internal/store). With Config.DataDir set, every registry mutation —
// dataset put/replace/delete, release publish/delete, policy create/delete —
// is journaled to the write-ahead log (append + fsync) before the in-memory
// map changes, so an acknowledged API response is always recoverable. Table
// contents travel separately as content-addressed columnar snapshots
// (Store.PutTable), written durably before the record referencing them is
// journaled; record metadata (tenants, parameters, measurements, policies)
// is serialized as opaque JSON the store hands back verbatim at recovery.
//
// Recovery (Open) rebuilds the registry from the store: tables come back
// with their columns served zero-copy from mmap, hierarchies are rebuilt deterministically from the dataset's family,
// and release ids resume past the highest recovered sequence number.

// errPersist marks storage failures during a registry mutation, mapped to a
// 500 with the "storage" code (the request is well-formed; the disk is not).
var errPersist = errors.New("storage failure")

// datasetMeta is the journaled metadata of one stored dataset. The table
// itself is referenced by fingerprint in the record's Tables list; the
// hierarchy set is not persisted — it is rebuilt from the family, which
// regenerates deterministically.
type datasetMeta struct {
	Family string `json:"family,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// Generation counts content versions of the name (1 at creation, +1 per
	// replace or append); the reconciler compares it against the generation
	// each release spec last reconciled.
	Generation  uint64 `json:"generation,omitempty"`
	CreatedUnix int64  `json:"created_unix_ns"`
}

// releaseMeta is the journaled metadata of one stored release: everything a
// storedRelease holds except the tables (referenced by fingerprint) and the
// Anatomy query-estimation state, which no server endpoint reads.
type releaseMeta struct {
	Seq     int    `json:"seq"`
	Dataset string `json:"dataset"`
	// Origin pins the dataset snapshot the release was built from, so
	// reports recover comparing against exactly the table that was
	// anonymized even if the registry name is later rebound.
	OriginFP      string            `json:"origin_fp"`
	OriginFamily  string            `json:"origin_family,omitempty"`
	OriginTenant  string            `json:"origin_tenant,omitempty"`
	OriginCreated int64             `json:"origin_created_unix_ns"`
	Algorithm     string            `json:"algorithm"`
	PolicyRef     string            `json:"policy_ref,omitempty"`
	Params        anonymizeRequest  `json:"params"`
	Policy        *policy.Policy    `json:"policy,omitempty"`
	Node          []int             `json:"node,omitempty"`
	Measured      core.Measurements `json:"measured"`
	TableFP       string            `json:"table_fp,omitempty"`
	QITFP         string            `json:"qit_fp,omitempty"`
	STFP          string            `json:"st_fp,omitempty"`
	// Spec names the release spec that owns this release ("" for ad-hoc
	// releases published through POST /v1/anonymize).
	Spec        string `json:"spec,omitempty"`
	ElapsedNS   int64  `json:"elapsed_ns"`
	CreatedUnix int64  `json:"created_unix_ns"`
}

// policyMeta is the journaled form of one stored policy (already canonical).
type policyMeta struct {
	Policy      *policy.Policy `json:"policy"`
	CreatedUnix int64          `json:"created_unix_ns"`
}

// hierarchyForFamily rebuilds the hierarchy set for a recovered dataset. The
// synthetic families construct their hierarchies deterministically, so they
// need not be persisted. Datasets registered by embedding callers with a
// family the server cannot resolve recover with no hierarchies — their rows
// are intact, but hierarchy-driven algorithms will reject them until
// re-uploaded under a known family.
func hierarchyForFamily(family string) *hierarchy.Set {
	f, err := synth.FamilyByName(family)
	if err != nil {
		return nil
	}
	return f.Hierarchies()
}

// persistDataset journals a dataset put. The caller must hold the registry
// write lock; the table snapshot must already be durable and its fingerprint
// recorded on ds.fp (see putDataset).
func (r *registry) persistDataset(ds *storedDataset) error {
	meta, err := json.Marshal(datasetMeta{
		Family:      ds.family,
		Tenant:      ds.tenant,
		Generation:  ds.generation,
		CreatedUnix: ds.created.UnixNano(),
	})
	if err != nil {
		return fmt.Errorf("%w: %v", errPersist, err)
	}
	err = r.st.Apply(store.Op{
		Op: store.OpPut, Kind: store.KindDataset, Key: ds.name,
		Tables: []string{ds.fp}, Meta: meta,
	})
	if err != nil {
		return fmt.Errorf("%w: %v", errPersist, err)
	}
	return nil
}

// persistRelease journals a release put. The caller must hold the registry
// write lock and must have persisted every referenced table snapshot.
func (r *registry) persistRelease(rel *storedRelease, originFP string, tableFPs releaseTableFPs) error {
	meta, err := json.Marshal(releaseMeta{
		Seq:           rel.seq,
		Dataset:       rel.dataset,
		OriginFP:      originFP,
		OriginFamily:  rel.origin.family,
		OriginTenant:  rel.origin.tenant,
		OriginCreated: rel.origin.created.UnixNano(),
		Algorithm:     string(rel.algorithm),
		PolicyRef:     rel.policyRef,
		Params:        rel.params,
		Policy:        rel.release.Policy,
		Node:          rel.release.Node,
		Measured:      rel.release.Measured,
		TableFP:       tableFPs.table,
		QITFP:         tableFPs.qit,
		STFP:          tableFPs.st,
		Spec:          rel.spec,
		ElapsedNS:     rel.elapsed.Nanoseconds(),
		CreatedUnix:   rel.created.UnixNano(),
	})
	if err != nil {
		return fmt.Errorf("%w: %v", errPersist, err)
	}
	tables := []string{originFP}
	for _, fp := range []string{tableFPs.table, tableFPs.qit, tableFPs.st} {
		if fp != "" && fp != originFP {
			tables = append(tables, fp)
		}
	}
	err = r.st.Apply(store.Op{
		Op: store.OpPut, Kind: store.KindRelease, Key: rel.id,
		Seq: uint64(rel.seq), Tables: tables, Meta: meta,
	})
	if err != nil {
		return fmt.Errorf("%w: %v", errPersist, err)
	}
	return nil
}

// persistPolicy journals a policy put under the registry write lock.
func (r *registry) persistPolicy(sp *storedPolicy) error {
	meta, err := json.Marshal(policyMeta{Policy: sp.policy, CreatedUnix: sp.created.UnixNano()})
	if err != nil {
		return fmt.Errorf("%w: %v", errPersist, err)
	}
	if err := r.st.Apply(store.Op{Op: store.OpPut, Kind: store.KindPolicy, Key: sp.name, Meta: meta}); err != nil {
		return fmt.Errorf("%w: %v", errPersist, err)
	}
	return nil
}

// persistDelete journals a delete of any kind under the registry write lock.
func (r *registry) persistDelete(kind, key string) error {
	if err := r.st.Apply(store.Op{Op: store.OpDelete, Kind: kind, Key: key}); err != nil {
		return fmt.Errorf("%w: %v", errPersist, err)
	}
	return nil
}

// releaseTableFPs carries the snapshot fingerprints of a release's published
// tables (microdata, or the Anatomy QIT/ST pair).
type releaseTableFPs struct {
	table, qit, st string
}

// persistReleaseTables writes the release's published tables as durable
// content-addressed snapshots. Called outside the registry lock — snapshot
// encoding is the expensive part, and PutTable is idempotent, so a put that
// later loses the id race leaves at worst an unreferenced file for the next
// checkpoint's GC.
func (r *registry) persistReleaseTables(rel *storedRelease) (originFP string, fps releaseTableFPs, err error) {
	put := func(t *dataset.Table) (string, error) {
		if t == nil {
			return "", nil
		}
		return r.st.PutTable(t)
	}
	if originFP, err = put(rel.origin.table); err != nil {
		return "", fps, fmt.Errorf("%w: %v", errPersist, err)
	}
	if fps.table, err = put(rel.release.Table); err != nil {
		return "", fps, fmt.Errorf("%w: %v", errPersist, err)
	}
	if fps.qit, err = put(rel.release.QIT); err != nil {
		return "", fps, fmt.Errorf("%w: %v", errPersist, err)
	}
	if fps.st, err = put(rel.release.ST); err != nil {
		return "", fps, fmt.Errorf("%w: %v", errPersist, err)
	}
	return originFP, fps, nil
}

// recover rebuilds the registry from a freshly opened store: datasets and
// policies first, then releases (which reference dataset snapshots). Tables
// load with mmap-backed zero-copy columns and stay cold until a handler
// reads them. Any inconsistency refuses boot:
// a server that starts must serve exactly what was acknowledged.
func (s *Server) recover(st *store.Store) error {
	reg := s.reg
	for _, rec := range st.Records(store.KindDataset) {
		var m datasetMeta
		if err := json.Unmarshal(rec.Meta, &m); err != nil {
			return fmt.Errorf("server: recover dataset %q: undecodable metadata: %w", rec.Key, err)
		}
		if len(rec.Tables) != 1 {
			return fmt.Errorf("server: recover dataset %q: %d table references, want 1", rec.Key, len(rec.Tables))
		}
		tbl, err := st.Table(rec.Tables[0])
		if err != nil {
			return fmt.Errorf("server: recover dataset %q: %w", rec.Key, err)
		}
		tbl.SetScanWorkers(s.scanWorkers())
		gen := m.Generation
		if gen == 0 {
			gen = 1 // records journaled before generations existed
		}
		reg.datasets[rec.Key] = &storedDataset{
			name:       rec.Key,
			family:     m.Family,
			tenant:     m.Tenant,
			table:      tbl,
			hier:       hierarchyForFamily(m.Family),
			generation: gen,
			// The snapshot is content-addressed, so its fingerprint in the
			// record IS the dataset's content fingerprint — no rescan needed.
			fp:      rec.Tables[0],
			created: time.Unix(0, m.CreatedUnix),
		}
	}
	for _, rec := range st.Records(store.KindPolicy) {
		var m policyMeta
		if err := json.Unmarshal(rec.Meta, &m); err != nil {
			return fmt.Errorf("server: recover policy %q: undecodable metadata: %w", rec.Key, err)
		}
		if m.Policy == nil {
			return fmt.Errorf("server: recover policy %q: no policy document", rec.Key)
		}
		canon, err := m.Policy.Canonical()
		if err != nil {
			return fmt.Errorf("server: recover policy %q: %w", rec.Key, err)
		}
		reg.policies[rec.Key] = &storedPolicy{name: rec.Key, policy: canon, created: time.Unix(0, m.CreatedUnix)}
	}
	// Specs recover before releases: a spec-owned release is only valid while
	// its owning spec references it, which the release loop checks below.
	if err := s.recoverSpecs(st); err != nil {
		return err
	}
	for _, rec := range st.Records(store.KindRelease) {
		var m releaseMeta
		if err := json.Unmarshal(rec.Meta, &m); err != nil {
			return fmt.Errorf("server: recover release %q: undecodable metadata: %w", rec.Key, err)
		}
		if m.Spec != "" {
			// A spec-owned release whose spec is gone or points elsewhere is a
			// straggler from a crash mid-swap; drop it rather than resurrect a
			// release no spec acknowledges.
			sp, ok := reg.specs[m.Spec]
			if !ok || sp.releaseID != rec.Key {
				continue
			}
		}
		load := func(fp string) (*dataset.Table, error) {
			if fp == "" {
				return nil, nil
			}
			t, err := st.Table(fp)
			if t != nil {
				t.SetScanWorkers(s.scanWorkers())
			}
			return t, err
		}
		origin, err := load(m.OriginFP)
		if err != nil || origin == nil {
			return fmt.Errorf("server: recover release %q: origin snapshot: %w", rec.Key, err)
		}
		tbl, err := load(m.TableFP)
		if err != nil {
			return fmt.Errorf("server: recover release %q: released table: %w", rec.Key, err)
		}
		qit, err := load(m.QITFP)
		if err != nil {
			return fmt.Errorf("server: recover release %q: QIT table: %w", rec.Key, err)
		}
		stt, err := load(m.STFP)
		if err != nil {
			return fmt.Errorf("server: recover release %q: ST table: %w", rec.Key, err)
		}
		// The origin reuses the live dataset entry when it is the same
		// snapshot (the common case — replace/delete are refused while a
		// release references the dataset), so reports share one mmap view.
		originDS := reg.datasets[m.Dataset]
		if originDS == nil || originDS.table != origin {
			originDS = &storedDataset{
				name:    m.Dataset,
				family:  m.OriginFamily,
				tenant:  m.OriginTenant,
				table:   origin,
				hier:    hierarchyForFamily(m.OriginFamily),
				created: time.Unix(0, m.OriginCreated),
			}
		}
		reg.releases[rec.Key] = &storedRelease{
			id:        rec.Key,
			seq:       m.Seq,
			dataset:   m.Dataset,
			spec:      m.Spec,
			origin:    originDS,
			algorithm: core.Algorithm(m.Algorithm),
			policyRef: m.PolicyRef,
			params:    m.Params,
			release: &core.Release{
				Table:     tbl,
				QIT:       qit,
				ST:        stt,
				Algorithm: core.Algorithm(m.Algorithm),
				Policy:    m.Policy,
				Node:      m.Node,
				Measured:  m.Measured,
			},
			elapsed: time.Duration(m.ElapsedNS),
			created: time.Unix(0, m.CreatedUnix),
		}
	}
	// Release ids resume past every sequence number ever acknowledged, so a
	// recovered server never reuses the id of a deleted release.
	if v := st.NextSeq(); v > 0 {
		reg.nextID = int(v) - 1
	}
	return nil
}

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
// dataset put/replace/delete, release publish/delete, policy create/delete,
// spec create/delete/swap — goes through registry.journal to the
// write-ahead log (append + fsync) before the in-memory map changes, so an
// acknowledged API response is always recoverable. Table
// contents travel separately as content-addressed columnar snapshots
// (Store.PutTable), written durably before the record referencing them is
// journaled; record metadata (tenants, parameters, measurements, policies)
// is serialized as opaque JSON the store hands back verbatim at recovery.
//
// Recovery (Open) rebuilds the registry from the store, one recoverKind pass
// per kind: tables come back with their columns served zero-copy from mmap,
// hierarchies are rebuilt deterministically from the dataset's family, and
// release ids resume past the highest recovered sequence number.

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
// Anatomy query-estimation state, which no server endpoint reads. Records
// journaled before releases stood on their own tables also carry the origin
// dataset's snapshot (origin_fp, listed first in the record's tables) and
// its tenant and creation time; decoding ignores those keys.
type releaseMeta struct {
	Seq     int    `json:"seq"`
	Dataset string `json:"dataset"`
	// OriginFamily is the schema family of the dataset the release was
	// built from.
	OriginFamily string            `json:"origin_family,omitempty"`
	Algorithm    string            `json:"algorithm"`
	PolicyRef    string            `json:"policy_ref,omitempty"`
	Params       anonymizeRequest  `json:"params"`
	Policy       *policy.Policy    `json:"policy,omitempty"`
	Node         []int             `json:"node,omitempty"`
	Measured     core.Measurements `json:"measured"`
	// Precision is the full-domain release's generalization precision,
	// scored when the release was made. Records journaled before it was
	// kept lack it; recovery scores them once against the hierarchies of
	// OriginFamily.
	Precision *float64 `json:"generalization_precision,omitempty"`
	TableFP   string   `json:"table_fp,omitempty"`
	QITFP     string   `json:"qit_fp,omitempty"`
	STFP      string   `json:"st_fp,omitempty"`
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

// journal writes one registry mutation through to the durable store: meta,
// when non-nil, is marshalled as the op's metadata, then the op is appended
// and fsynced. The caller holds the registry write lock and changes the maps
// only once journal succeeds; without a store it does nothing. Every failure
// wraps errPersist.
func (r *registry) journal(op store.Op, meta any) error {
	if r.st == nil {
		return nil
	}
	if op.Op == store.OpPut && op.Kind == store.KindSpec &&
		r.failSpecPersist.Load() > 0 && r.failSpecPersist.Add(-1) >= 0 {
		return fmt.Errorf("%w: injected spec journal failure", errPersist)
	}
	if meta != nil {
		var err error
		if op.Meta, err = json.Marshal(meta); err != nil {
			return fmt.Errorf("%w: %v", errPersist, err)
		}
	}
	if err := r.st.Apply(op); err != nil {
		return fmt.Errorf("%w: %v", errPersist, err)
	}
	return nil
}

// releaseRecord is a release's journal entry before its id is assigned: the
// table snapshots it references and its metadata.
type releaseRecord struct {
	tables []string
	meta   releaseMeta
}

// prepareRelease writes the release's published tables as durable
// content-addressed snapshots and returns the record that references them
// (zero without a store, so registry unit tests may store table-less stubs).
// Called outside the registry lock — snapshot encoding is the expensive
// part, and PutTable is idempotent, so a put that later loses the id race
// leaves at worst an unreferenced file for the next checkpoint's GC.
func (r *registry) prepareRelease(rel *storedRelease) (releaseRecord, error) {
	if r.st == nil {
		return releaseRecord{}, nil
	}
	var rec releaseRecord
	var fps [3]string
	for i, t := range []*dataset.Table{rel.release.Table, rel.release.QIT, rel.release.ST} {
		if t == nil {
			continue
		}
		fp, err := r.st.PutTable(t)
		if err != nil {
			return releaseRecord{}, fmt.Errorf("%w: %v", errPersist, err)
		}
		fps[i] = fp
		rec.tables = append(rec.tables, fp)
	}
	rec.meta = releaseMeta{
		Dataset:      rel.dataset,
		OriginFamily: rel.family,
		Algorithm:    string(rel.algorithm),
		PolicyRef:    rel.policyRef,
		Params:       rel.params,
		Policy:       rel.release.Policy,
		Node:         rel.release.Node,
		Measured:     rel.release.Measured,
		Precision:    rel.precision,
		TableFP:      fps[0],
		QITFP:        fps[1],
		STFP:         fps[2],
		Spec:         rel.spec,
		ElapsedNS:    rel.elapsed.Nanoseconds(),
		CreatedUnix:  rel.created.UnixNano(),
	}
	return rec, nil
}

// recoverKind decodes every record of one kind and hands it to add, naming
// the kind and key in any error.
func recoverKind[M any](st *store.Store, kind string, add func(rec store.Record, m M) error) error {
	for _, rec := range st.Records(kind) {
		var m M
		if err := json.Unmarshal(rec.Meta, &m); err != nil {
			return fmt.Errorf("server: recover %s %q: undecodable metadata: %w", kind, rec.Key, err)
		}
		if err := add(rec, m); err != nil {
			return fmt.Errorf("server: recover %s %q: %w", kind, rec.Key, err)
		}
	}
	return nil
}

// recover rebuilds the registry from a freshly opened store: datasets and
// policies first, then specs, then releases (which reference their owning
// spec). Tables load with mmap-backed zero-copy columns and stay cold until
// a handler reads them. Any inconsistency refuses boot: a server that starts
// must serve exactly what was acknowledged.
func (s *Server) recover(st *store.Store) error {
	reg := s.reg
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
	err := recoverKind(st, store.KindDataset, func(rec store.Record, m datasetMeta) error {
		if len(rec.Tables) != 1 {
			return fmt.Errorf("%d table references, want 1", len(rec.Tables))
		}
		tbl, err := load(rec.Tables[0])
		if err != nil {
			return err
		}
		if m.Generation == 0 {
			m.Generation = 1 // records journaled before generations existed
		}
		// The snapshot is content-addressed, so its fingerprint in the
		// record IS the dataset's content fingerprint — no rescan needed.
		reg.datasets.put(rec.Key, &storedDataset{name: rec.Key, datasetMeta: m, table: tbl,
			hier: hierarchyForFamily(m.Family), fp: rec.Tables[0]})
		return nil
	})
	if err != nil {
		return err
	}
	err = recoverKind(st, store.KindPolicy, func(rec store.Record, m policyMeta) error {
		if m.Policy == nil {
			return errors.New("no policy document")
		}
		var err error
		if m.Policy, err = m.Policy.Canonical(); err != nil {
			return err
		}
		reg.policies.put(rec.Key, &storedPolicy{name: rec.Key, policyMeta: m})
		return nil
	})
	if err != nil {
		return err
	}
	// Specs recover before releases: a spec-owned release is only valid while
	// its owning spec references it, which the release loop checks below.
	// The m-invariance history recovers as metadata; specs come back without
	// a live index, so each one's first reconciliation re-reads its QIT/ST
	// tables, re-validates the chain and resumes the sequence exactly where
	// the crashed process left it.
	err = recoverKind(st, store.KindSpec, func(rec store.Record, m specMeta) error {
		if m.Policy == nil {
			return errors.New("no pinned policy")
		}
		m.Params = m.Params.journaled()
		for i, h := range m.History {
			if h.Rows > 0 {
				continue
			}
			// Records journaled before the counts were kept carry rows 0.
			rel, err := historyRelease(st, h)
			if err != nil {
				return err
			}
			m.History[i].Rows, m.History[i].Counterfeits = rel.QIT.Len(), rel.Counterfeits
		}
		reg.specs.put(rec.Key, &storedSpec{name: rec.Key, specMeta: m})
		return nil
	})
	if err != nil {
		return err
	}
	err = recoverKind(st, store.KindRelease, func(rec store.Record, m releaseMeta) error {
		if m.Spec != "" {
			// A spec-owned release whose spec is gone or points elsewhere is a
			// straggler from a crash mid-swap; drop it rather than resurrect a
			// release no spec acknowledges.
			sp, ok := reg.specs.items[m.Spec]
			if !ok || sp.ReleaseID != rec.Key {
				return nil
			}
		}
		tbl, err := load(m.TableFP)
		if err != nil {
			return fmt.Errorf("released table: %w", err)
		}
		qit, err := load(m.QITFP)
		if err != nil {
			return fmt.Errorf("QIT table: %w", err)
		}
		stt, err := load(m.STFP)
		if err != nil {
			return fmt.Errorf("ST table: %w", err)
		}
		rel := &storedRelease{
			id:        rec.Key,
			seq:       m.Seq,
			dataset:   m.Dataset,
			spec:      m.Spec,
			family:    m.OriginFamily,
			precision: m.Precision,
			algorithm: core.Algorithm(m.Algorithm),
			policyRef: m.PolicyRef,
			params:    m.Params.journaled(),
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
		if rel.precision == nil && len(m.Node) > 0 {
			// Journaled before the precision was kept: score it once against
			// the family's hierarchies, which the run used.
			rel.precision = generalizationPrecision(rel.release, rel.params.QuasiIdentifiers, hierarchyForFamily(m.OriginFamily))
		}
		reg.releases.put(rec.Key, rel)
		return nil
	})
	if err != nil {
		return err
	}
	// Release ids resume past every sequence number ever acknowledged, so a
	// recovered server never reuses the id of a deleted release.
	if v := st.NextSeq(); v > 0 {
		reg.nextID = int(v) - 1
	}
	return nil
}

package republish

import (
	"fmt"

	"github.com/ppdp/ppdp/internal/dataset"
)

// ReleaseFromTables reconstructs a Release from its published QIT and ST
// tables. The signature map and counterfeit count are fully derivable from
// the tables (the QIT carries each record's bucket and tracking id, the ST
// each bucket's value set in signature order), so durable storage only needs
// the two table snapshots — this is the recovery half of persisting a
// sequential-publication history through the content-addressed store.
func ReleaseFromTables(version int, qit, st *dataset.Table) (*Release, error) {
	bucketCol, err := qit.Schema().Index("bucket")
	if err != nil {
		return nil, fmt.Errorf("%w: QIT: %v", ErrConfig, err)
	}
	idIdx := qit.Schema().IdentifierIndices()
	if len(idIdx) != 1 {
		return nil, fmt.Errorf("%w: QIT must carry exactly one identifier column (got %d)", ErrConfig, len(idIdx))
	}
	idCol := idIdx[0]
	stBucketCol, err := st.Schema().Index("bucket")
	if err != nil {
		return nil, fmt.Errorf("%w: ST: %v", ErrConfig, err)
	}
	sensIdx := st.Schema().SensitiveIndices()
	if len(sensIdx) != 1 {
		return nil, fmt.Errorf("%w: ST must carry exactly one sensitive column (got %d)", ErrConfig, len(sensIdx))
	}
	sensCol := sensIdx[0]

	// The publisher emits ST rows per bucket in signature order, so the
	// per-bucket value list rebuilds the signature exactly. Both tables are
	// read as dictionary codes: one signature per distinct bucket value, and
	// one string lookup per QIT dictionary entry rather than per row.
	stBuckets, err := st.CodedColumn(stBucketCol)
	if err != nil {
		return nil, err
	}
	stValues, err := st.CodedColumn(sensCol)
	if err != nil {
		return nil, err
	}
	sigByBucket := make(map[string][]string, len(stBuckets.Dict))
	for r, code := range stBuckets.Codes {
		b := stBuckets.Dict[code]
		sigByBucket[b] = append(sigByBucket[b], stValues.Dict[stValues.Codes[r]])
	}

	buckets, err := qit.CodedColumn(bucketCol)
	if err != nil {
		return nil, err
	}
	ids, err := qit.CodedColumn(idCol)
	if err != nil {
		return nil, err
	}
	sigOf := make([][]string, len(buckets.Dict))
	for code, b := range buckets.Dict {
		sigOf[code] = sigByBucket[b]
	}
	// A linear scan, not ids.Code: that would build a value index over a
	// dictionary of mostly unique ids just to find one entry.
	counterfeit := -1
	for code, id := range ids.Dict {
		if id == CounterfeitValue {
			counterfeit = code
			break
		}
	}
	rel := &Release{Version: version, QIT: qit, ST: st, Signatures: make(map[string][]string, qit.Len())}
	for r, code := range ids.Codes {
		if int(code) == counterfeit {
			rel.Counterfeits++
			continue
		}
		b := buckets.Codes[r]
		if sigOf[b] == nil {
			return nil, fmt.Errorf("%w: QIT bucket %q has no ST rows", ErrConfig, buckets.Dict[b])
		}
		rel.Signatures[ids.Dict[code]] = sigOf[b]
	}
	return rel, nil
}

// Restore rebuilds a publisher from a previously published history so
// publication can continue after a restart: every individual's signature is
// re-fixed from the release it first appeared in, and the next Publish call
// produces release len(history)+1. The history must be m-invariant under the
// configuration's m (a signature drift means the stored history is corrupt
// or was produced under a different policy). Validation folds the releases
// into the index one at a time — each release is checked against the index
// of the releases before it, exactly as Index.Check checks a new one — with
// signatures compared by their interned position.
func Restore(cfg Config, history []*Release) (*Publisher, error) {
	p, err := NewPublisher(cfg)
	if err != nil {
		return nil, err
	}
	for i, rel := range history {
		if rel.Version != i+1 {
			return nil, fmt.Errorf("%w: release %d carries version %d", ErrConfig, i+1, rel.Version)
		}
		cache := make(map[sigRef]sigInfo)
		if v := p.idx.firstViolation(rel, cfg.M, cache); v != nil {
			if v.prev == nil {
				return nil, fmt.Errorf("%w: release %d: individual %s has signature %v with fewer than %d distinct values",
					ErrEligibility, rel.Version, v.id, v.sig, cfg.M)
			}
			return nil, fmt.Errorf("%w: release %d: individual %s changed signature from %v to %v",
				ErrConfig, rel.Version, v.id, v.prev, v.sig)
		}
		p.idx.absorb(rel, cache)
		p.releases = append(p.releases, rel)
	}
	return p, nil
}

// Package republish implements the sequential (dynamic) re-publication pillar
// of the PPDP survey: when a table is published repeatedly as records are
// inserted, the intersection of releases can disclose sensitive values even
// though every individual release is k-anonymous and l-diverse. Xiao and
// Tao's m-invariance closes this channel by requiring every individual to
// appear, across all releases, in equivalence classes with exactly the same
// signature of m distinct sensitive values, adding counterfeit records when
// the real data cannot supply them.
//
// The package provides both the checker (is a series of releases m-invariant
// for the individuals they share?) and a publisher that produces m-invariant
// sequential releases from snapshots of a growing table.
package republish

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
)

// Common errors. Each carries its engine class (engine.ErrConfig or
// engine.ErrUnsatisfiable), so errors.Is matches either.
var (
	// ErrConfig is returned for invalid configurations.
	ErrConfig = engine.ConfigError(errors.New("republish: invalid configuration"))
	// ErrEligibility is returned when a snapshot cannot be partitioned into
	// m-diverse buckets (some sensitive value is too frequent).
	ErrEligibility = engine.UnsatisfiableError(errors.New("republish: sensitive distribution violates the m-eligibility condition"))
	// ErrUnknownID is returned when a record lacks the identity column used
	// to track individuals across releases.
	ErrUnknownID = engine.ConfigError(errors.New("republish: record id column missing"))
)

// CounterfeitValue marks counterfeit identities injected to keep signatures
// stable across releases.
const CounterfeitValue = "counterfeit"

// Release is one published version of the growing table.
type Release struct {
	// Version is the 1-based release number.
	Version int
	// QIT maps each (possibly counterfeit) record to its bucket: the QI
	// columns plus "bucket" and the tracking id column.
	QIT *dataset.Table
	// ST lists each bucket's sensitive values and counts.
	ST *dataset.Table
	// Signatures maps record id -> sorted signature of sensitive values of
	// its bucket in this release. Individuals of one bucket share one slice.
	Signatures map[string][]string
	// Counterfeits is the number of counterfeit records added.
	Counterfeits int
}

// Config controls a sequential publisher.
type Config struct {
	// M is the required number of distinct sensitive values per bucket (and
	// per cross-release signature).
	M int
	// ID names the column that identifies individuals across releases (it
	// is pseudonymous in the output: needed to audit invariance, dropped by
	// callers who only forward QIT/ST).
	ID string
	// Sensitive names the sensitive attribute; defaults to the schema's
	// first sensitive column.
	Sensitive string
	// QuasiIdentifiers lists the columns published in the QIT; defaults to
	// the schema's quasi-identifier columns.
	QuasiIdentifiers []string
	// Progress, when non-nil, receives (done, total) events as snapshot rows
	// are materialized into the release; total is the snapshot's row count.
	Progress func(done, total int)
}

// Publisher produces m-invariant sequential releases.
type Publisher struct {
	cfg Config
	// idx fixes each individual's sensitive-value signature at first
	// publication; every Publish replaces it with the extended index.
	idx      *Index
	releases []*Release
}

// NewPublisher validates the configuration.
func NewPublisher(cfg Config) (*Publisher, error) {
	if cfg.M < 2 {
		return nil, fmt.Errorf("%w: m = %d", ErrConfig, cfg.M)
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("%w: an id column is required to track individuals", ErrConfig)
	}
	return &Publisher{cfg: cfg, idx: newIndex()}, nil
}

// Resume continues publication from the index of a previously published
// history (see Publisher.Index) without re-reading or re-validating the
// releases it was built from: the next Publish produces release
// idx.Version()+1. The index is not modified, so a release that is never
// committed can simply be dropped. Restore is the validating counterpart
// that starts from the releases themselves.
func Resume(cfg Config, idx *Index) (*Publisher, error) {
	p, err := NewPublisher(cfg)
	if err != nil {
		return nil, err
	}
	if idx != nil {
		p.idx = idx
	}
	return p, nil
}

// Releases returns the releases this publisher holds: the history it was
// restored from plus every release it published (a resumed publisher holds
// only its own).
func (p *Publisher) Releases() []*Release { return p.releases }

// Index returns the signature index after the latest release. It is
// immutable: later releases derive a new one.
func (p *Publisher) Index() *Index { return p.idx }

// Publish produces the next release from the current snapshot of the table.
// The snapshot must contain every previously published individual that is
// still present plus any newly inserted ones (deletions are allowed: absent
// individuals simply stop appearing).
func (p *Publisher) Publish(snapshot *dataset.Table) (*Release, error) {
	return p.PublishContext(context.Background(), snapshot)
}

// PublishContext is Publish under a context: the publisher polls ctx once
// per materialized row, so a canceled request aborts the release mid-build.
func (p *Publisher) PublishContext(ctx context.Context, snapshot *dataset.Table) (*Release, error) {
	sensitive := p.cfg.Sensitive
	if sensitive == "" {
		names := snapshot.Schema().SensitiveNames()
		if len(names) == 0 {
			return nil, fmt.Errorf("%w: no sensitive attribute", ErrConfig)
		}
		sensitive = names[0]
	}
	qi := p.cfg.QuasiIdentifiers
	if len(qi) == 0 {
		qi = snapshot.Schema().QuasiIdentifierNames()
	}
	if len(qi) == 0 {
		return nil, fmt.Errorf("%w: no quasi-identifier attributes", ErrConfig)
	}
	idCol, err := snapshot.CodedColumnByName(p.cfg.ID)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownID, err)
	}
	sensCol, err := snapshot.CodedColumnByName(sensitive)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}

	base := p.idx
	var existing, fresh []record
	for r := 0; r < snapshot.Len(); r++ {
		rc := record{row: r, id: idCol.Dict[idCol.Codes[r]], sens: sensCol.Dict[sensCol.Codes[r]]}
		if sig, ok := base.ids[rc.id]; ok {
			rc.sig = sig
			existing = append(existing, rc)
		} else {
			rc.fresh = true
			fresh = append(fresh, rc)
		}
	}
	sort.Slice(existing, func(i, j int) bool { return existing[i].id < existing[j].id })
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].id < fresh[j].id })

	// Bucket existing individuals by their fixed signature. Records whose
	// current sensitive value is no longer in their signature keep the
	// signature (m-invariance fixes it forever); their bucket is padded with
	// counterfeits for the missing values.
	members := make(map[int32][]record)
	for _, rc := range existing {
		members[rc.sig] = append(members[rc.sig], rc)
	}

	// Partition fresh individuals into new m-diverse buckets using the
	// Anatomy-style greedy assignment; their value sets join the next index
	// (a copy, so the receiver's index is untouched if this release fails).
	next := &Index{sigs: base.sigs, width: base.width, byKey: base.byKey, ids: base.ids}
	if len(fresh) > 0 {
		newBuckets, err := partitionFresh(fresh, p.cfg.M)
		if err != nil {
			return nil, err
		}
		next = base.clone()
		cache := make(map[sigRef]sigInfo)
		for _, b := range newBuckets {
			sig := next.intern(b.signature, cache)
			members[sig] = append(members[sig], b.members...)
		}
	}
	next.version = base.version + 1

	// Materialize the release: each signature bucket must expose exactly its
	// signature's value set; counterfeit records cover values with no live
	// member.
	rel := &Release{
		Version:    next.version,
		Signatures: make(map[string][]string),
	}
	qitSchema, stSchema, err := releaseSchemas(snapshot, qi, sensitive, p.cfg.ID)
	if err != nil {
		return nil, err
	}
	var qitRows, stRows []dataset.Row
	qiCols := make([]*dataset.CodedColumn, len(qi))
	for i, a := range qi {
		if qiCols[i], err = snapshot.CodedColumnByName(a); err != nil {
			return nil, err
		}
	}

	// Buckets are numbered in the byte order of their joined signatures.
	type bucket struct {
		key string
		sig int32
	}
	order := make([]bucket, 0, len(members))
	for sig := range members {
		order = append(order, bucket{strings.Join(next.sigs[sig], "\x1f"), sig})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].key < order[j].key })
	done, total := 0, snapshot.Len()
	for bucketID, bk := range order {
		signature := next.sigs[bk.sig]
		bid := strconv.Itoa(bucketID)
		counts := make(map[string]int)
		for _, rc := range members[bk.sig] {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out := make(dataset.Row, 0, len(qi)+2)
			for _, cc := range qiCols {
				out = append(out, cc.Dict[cc.Codes[rc.row]])
			}
			qitRows = append(qitRows, append(out, bid, rc.id))
			// The published histogram lists the signature values; a member
			// whose current value left the signature is counted under its
			// original signature slot to keep the release m-invariant.
			v := rc.sens
			if !contains(signature, v) {
				v = signature[0]
			}
			counts[v]++
			rel.Signatures[rc.id] = signature
			// A newcomer's signature is fixed by the bucket it is published
			// in: with duplicate ids the last row wins, as when the release
			// is rebuilt from its tables. CounterfeitValue is reserved for
			// padding and never tracked as an individual.
			if rc.fresh && rc.id != CounterfeitValue {
				next.ids[rc.id] = bk.sig
			}
			done++
			if p.cfg.Progress != nil {
				p.cfg.Progress(done, total)
			}
		}
		// Counterfeits for signature values with no member.
		for _, v := range signature {
			if counts[v] == 0 {
				counterfeit := make(dataset.Row, 0, len(qi)+2)
				for range qi {
					counterfeit = append(counterfeit, dataset.SuppressedValue)
				}
				qitRows = append(qitRows, append(counterfeit, bid, CounterfeitValue))
				counts[v]++
				rel.Counterfeits++
			}
		}
		for _, v := range signature {
			stRows = append(stRows, dataset.Row{bid, v, strconv.Itoa(counts[v])})
		}
	}
	if rel.QIT, err = dataset.FromRows(qitSchema, qitRows); err != nil {
		return nil, err
	}
	if rel.ST, err = dataset.FromRows(stSchema, stRows); err != nil {
		return nil, err
	}
	p.idx = next
	p.releases = append(p.releases, rel)
	return rel, nil
}

// record is one individual's row in the current snapshot: sig is its fixed
// signature's position in the index, unless the individual is fresh.
type record struct {
	row   int
	id    string
	sens  string
	sig   int32
	fresh bool
}

// freshBucket groups records sharing one sensitive-value signature.
type freshBucket struct {
	signature []string
	members   []record
}

// partitionFresh groups never-published individuals into buckets of exactly m
// distinct sensitive values using the Anatomy bucketization; the resulting
// value sets become their permanent signatures.
func partitionFresh(fresh []record, m int) ([]freshBucket, error) {
	byValue := make(map[string][]record)
	for _, rc := range fresh {
		byValue[rc.sens] = append(byValue[rc.sens], rc)
	}
	var out []freshBucket
	for {
		values := make([]string, 0, len(byValue))
		for v := range byValue {
			values = append(values, v)
		}
		if len(values) < m {
			break
		}
		sort.Slice(values, func(i, j int) bool {
			ni, nj := len(byValue[values[i]]), len(byValue[values[j]])
			if ni != nj {
				return ni > nj
			}
			return values[i] < values[j]
		})
		chosen := values[:m]
		sig := append([]string(nil), chosen...)
		sort.Strings(sig)
		b := freshBucket{signature: sig}
		for _, v := range chosen {
			rows := byValue[v]
			b.members = append(b.members, rows[len(rows)-1])
			byValue[v] = rows[:len(rows)-1]
			if len(byValue[v]) == 0 {
				delete(byValue, v)
			}
		}
		out = append(out, b)
	}
	// Residuals join an existing bucket whose signature contains their value,
	// value by value in sorted order: two residual values sharing a bucket
	// then always append in the same order, keeping the release deterministic.
	residual := make([]string, 0, len(byValue))
	for v := range byValue {
		residual = append(residual, v)
	}
	sort.Strings(residual)
	for _, v := range residual {
		for _, rc := range byValue[v] {
			placed := false
			for i := range out {
				if contains(out[i].signature, v) {
					out[i].members = append(out[i].members, rc)
					placed = true
					break
				}
			}
			if !placed {
				return nil, fmt.Errorf("%w: value %q too frequent among new records for m=%d", ErrEligibility, v, m)
			}
		}
	}
	if len(out) == 0 && len(fresh) > 0 {
		return nil, fmt.Errorf("%w: fewer than %d distinct sensitive values among new records", ErrEligibility, m)
	}
	return out, nil
}

func contains(values []string, v string) bool {
	for _, x := range values {
		if x == v {
			return true
		}
	}
	return false
}

// releaseSchemas builds the QIT and ST schemas of a release.
func releaseSchemas(snapshot *dataset.Table, qi []string, sensitive, id string) (*dataset.Schema, *dataset.Schema, error) {
	attrs := make([]dataset.Attribute, 0, len(qi)+2)
	for _, a := range qi {
		attr, err := snapshot.Schema().ByName(a)
		if err != nil {
			return nil, nil, err
		}
		attrs = append(attrs, attr)
	}
	attrs = append(attrs,
		dataset.Attribute{Name: "bucket", Kind: dataset.Insensitive, Type: dataset.Numeric},
		dataset.Attribute{Name: id, Kind: dataset.Identifier, Type: dataset.Categorical},
	)
	qitSchema, err := dataset.NewSchema(attrs...)
	if err != nil {
		return nil, nil, err
	}
	stSchema, err := dataset.NewSchema(
		dataset.Attribute{Name: "bucket", Kind: dataset.Insensitive, Type: dataset.Numeric},
		dataset.Attribute{Name: sensitive, Kind: dataset.Sensitive, Type: dataset.Categorical},
		dataset.Attribute{Name: "count", Kind: dataset.Insensitive, Type: dataset.Numeric},
	)
	if err != nil {
		return nil, nil, err
	}
	return qitSchema, stSchema, nil
}

// CheckInvariance verifies that a series of releases is m-invariant: every
// individual appearing in more than one release has exactly the same
// signature (set of sensitive values of its bucket) in each of them, and
// every signature has at least m distinct values.
func CheckInvariance(releases []*Release, m int) (bool, string, error) {
	if m < 2 {
		return false, "", fmt.Errorf("%w: m = %d", ErrConfig, m)
	}
	seen := make(map[string][]string)
	for _, rel := range releases {
		for id, sig := range rel.Signatures {
			if id == CounterfeitValue {
				continue
			}
			if len(uniq(sig)) < m {
				return false, fmt.Sprintf("release %d: individual %s has signature %v with fewer than %d distinct values", rel.Version, id, sig, m), nil
			}
			prev, ok := seen[id]
			if !ok {
				seen[id] = sig
				continue
			}
			if !equalSignature(prev, sig) {
				return false, fmt.Sprintf("individual %s changed signature from %v to %v", id, prev, sig), nil
			}
		}
	}
	return true, "", nil
}

func uniq(values []string) []string {
	set := make(map[string]struct{}, len(values))
	for _, v := range values {
		set[v] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	return out
}

func equalSignature(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// IntersectionAttack simulates the attack m-invariance is designed to stop:
// for every individual present in two consecutive releases, the attacker
// intersects the sensitive-value sets of the individual's buckets. It returns
// the fraction of shared individuals whose intersection shrinks to a single
// value (full disclosure) and the average intersection size.
func IntersectionAttack(first, second *Release) (disclosed float64, avgIntersection float64) {
	shared := 0
	disclosedCount := 0
	totalSize := 0
	for id, sigA := range first.Signatures {
		sigB, ok := second.Signatures[id]
		if !ok || id == CounterfeitValue {
			continue
		}
		shared++
		inter := intersect(uniq(sigA), uniq(sigB))
		totalSize += len(inter)
		if len(inter) <= 1 {
			disclosedCount++
		}
	}
	if shared == 0 {
		return 0, 0
	}
	return float64(disclosedCount) / float64(shared), float64(totalSize) / float64(shared)
}

func intersect(a, b []string) []string {
	set := make(map[string]struct{}, len(a))
	for _, v := range a {
		set[v] = struct{}{}
	}
	var out []string
	for _, v := range b {
		if _, ok := set[v]; ok {
			out = append(out, v)
		}
	}
	return out
}

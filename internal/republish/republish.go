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
)

// Common errors.
var (
	// ErrConfig is returned for invalid configurations.
	ErrConfig = errors.New("republish: invalid configuration")
	// ErrEligibility is returned when a snapshot cannot be partitioned into
	// m-diverse buckets (some sensitive value is too frequent).
	ErrEligibility = errors.New("republish: sensitive distribution violates the m-eligibility condition")
	// ErrUnknownID is returned when a record lacks the identity column used
	// to track individuals across releases.
	ErrUnknownID = errors.New("republish: record id column missing")
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
	// its bucket in this release.
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
	// signatures fixes each individual's sensitive-value signature at first
	// publication.
	signatures map[string][]string
	releases   []*Release
}

// NewPublisher validates the configuration.
func NewPublisher(cfg Config) (*Publisher, error) {
	if cfg.M < 2 {
		return nil, fmt.Errorf("%w: m = %d", ErrConfig, cfg.M)
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("%w: an id column is required to track individuals", ErrConfig)
	}
	return &Publisher{cfg: cfg, signatures: make(map[string][]string)}, nil
}

// Releases returns the releases published so far.
func (p *Publisher) Releases() []*Release { return p.releases }

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

	var existing, fresh []record
	for r := 0; r < snapshot.Len(); r++ {
		rc := record{row: r, id: idCol.Dict[idCol.Codes[r]], sens: sensCol.Dict[sensCol.Codes[r]]}
		if _, ok := p.signatures[rc.id]; ok {
			existing = append(existing, rc)
		} else {
			fresh = append(fresh, rc)
		}
	}
	sort.Slice(existing, func(i, j int) bool { return existing[i].id < existing[j].id })
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].id < fresh[j].id })

	// Bucket existing individuals by their fixed signature. Records whose
	// current sensitive value is no longer in their signature keep the
	// signature (m-invariance fixes it forever); their bucket is padded with
	// counterfeits for the missing values.
	buckets := make(map[string]*freshBucket)
	keyOf := func(sig []string) string { return strings.Join(sig, "\x1f") }
	for _, rc := range existing {
		sig := p.signatures[rc.id]
		k := keyOf(sig)
		if buckets[k] == nil {
			buckets[k] = &freshBucket{signature: sig}
		}
		buckets[k].members = append(buckets[k].members, rc)
	}

	// Partition fresh individuals into new m-diverse buckets using the
	// Anatomy-style greedy assignment.
	if len(fresh) > 0 {
		newBuckets, err := partitionFresh(fresh, p.cfg.M)
		if err != nil {
			return nil, err
		}
		for _, b := range newBuckets {
			k := keyOf(b.signature)
			if buckets[k] == nil {
				buckets[k] = &freshBucket{signature: b.signature}
			}
			buckets[k].members = append(buckets[k].members, b.members...)
			for _, rc := range b.members {
				p.signatures[rc.id] = b.signature
			}
		}
	}

	// Materialize the release: each signature bucket must expose exactly its
	// signature's value set; counterfeit records cover values with no live
	// member.
	rel := &Release{
		Version:    len(p.releases) + 1,
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

	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	done, total := 0, snapshot.Len()
	for bucketID, k := range keys {
		b := buckets[k]
		bid := strconv.Itoa(bucketID)
		counts := make(map[string]int)
		for _, rc := range b.members {
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
			if !contains(b.signature, v) {
				v = b.signature[0]
			}
			counts[v]++
			rel.Signatures[rc.id] = b.signature
			done++
			if p.cfg.Progress != nil {
				p.cfg.Progress(done, total)
			}
		}
		// Counterfeits for signature values with no member.
		for _, v := range b.signature {
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
		for _, v := range b.signature {
			stRows = append(stRows, dataset.Row{bid, v, strconv.Itoa(counts[v])})
		}
	}
	if rel.QIT, err = dataset.FromRows(qitSchema, qitRows); err != nil {
		return nil, err
	}
	if rel.ST, err = dataset.FromRows(stSchema, stRows); err != nil {
		return nil, err
	}
	p.releases = append(p.releases, rel)
	return rel, nil
}

// record is one individual's row in the current snapshot.
type record struct {
	row  int
	id   string
	sens string
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
	// Residuals join an existing bucket whose signature contains their value.
	for v, rows := range byValue {
		for _, rc := range rows {
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

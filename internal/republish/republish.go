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
	"slices"
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
	pl, err := p.plan(ctx, snapshot)
	if err != nil {
		return nil, err
	}
	rel := pl.rel
	if rel.QIT, err = pl.qit(snapshot); err != nil {
		return nil, err
	}
	// The ST has one row per bucket and signature value, so building it
	// from rows costs little.
	if rel.ST, err = dataset.FromRows(pl.stSchema, pl.stRows); err != nil {
		return nil, err
	}
	p.idx = pl.next
	p.releases = append(p.releases, rel)
	return rel, nil
}

// plan is a release laid out over its snapshot but not yet materialized.
type plan struct {
	// rel carries the release's version, signatures and counterfeit count;
	// its tables are built from the rest of the plan.
	rel *Release
	// next is the index after the release.
	next *Index
	// qi and id name the snapshot columns the QIT publishes.
	qi []string
	id string
	// rows is the QIT's row order: QIT row i copies snapshot row rows[i],
	// or is a counterfeit when rows[i] is -1. It lies in bucket buckets[i],
	// published as bucketNames[buckets[i]].
	rows        []int
	buckets     []uint32
	bucketNames []string
	stRows      []dataset.Row
	qitSchema   *dataset.Schema
	stSchema    *dataset.Schema
}

// bucketRows lists one signature bucket's members as snapshot rows:
// rows[:old] were published before, sorted by id; the rest are fresh, in
// partition order.
type bucketRows struct {
	rows []int
	old  int
}

// plan lays out the next release of snapshot without modifying p: which
// bucket every individual joins, where counterfeits go, and the index the
// release leaves behind.
func (p *Publisher) plan(ctx context.Context, snapshot *dataset.Table) (*plan, error) {
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
	idOf := func(r int) string { return idCol.Dict[idCol.Codes[r]] }

	base := p.idx
	n := snapshot.Len()
	sigOf := make([]int32, n)
	var existing, fresh []int
	for r := 0; r < n; r++ {
		if sig, ok := base.ids[idOf(r)]; ok {
			sigOf[r] = sig
			existing = append(existing, r)
		} else {
			fresh = append(fresh, r)
		}
	}
	sort.Slice(existing, func(i, j int) bool { return idOf(existing[i]) < idOf(existing[j]) })
	sort.Slice(fresh, func(i, j int) bool { return idOf(fresh[i]) < idOf(fresh[j]) })

	// Bucket existing individuals by their fixed signature. Records whose
	// current sensitive value is no longer in their signature keep the
	// signature (m-invariance fixes it forever); their bucket is padded with
	// counterfeits for the missing values.
	members := make(map[int32]*bucketRows)
	bucketOf := func(sig int32) *bucketRows {
		b := members[sig]
		if b == nil {
			b = &bucketRows{}
			members[sig] = b
		}
		return b
	}
	for _, r := range existing {
		b := bucketOf(sigOf[r])
		b.rows = append(b.rows, r)
		b.old++
	}

	// Partition fresh individuals into new m-diverse buckets using the
	// Anatomy-style greedy assignment; their value sets join the next index
	// (a copy, so the receiver's index is untouched if this release fails).
	next := &Index{sigs: base.sigs, width: base.width, byKey: base.byKey, ids: base.ids}
	if len(fresh) > 0 {
		newBuckets, err := partitionFresh(fresh, sensCol, p.cfg.M)
		if err != nil {
			return nil, err
		}
		next = base.clone()
		cache := make(map[sigRef]sigInfo)
		for _, fb := range newBuckets {
			b := bucketOf(next.intern(fb.signature, cache))
			b.rows = append(b.rows, fb.members...)
		}
	}
	next.version = base.version + 1

	qitSchema, stSchema, err := releaseSchemas(snapshot, qi, sensitive, p.cfg.ID)
	if err != nil {
		return nil, err
	}
	pl := &plan{
		rel:       &Release{Version: next.version, Signatures: make(map[string][]string, n)},
		next:      next,
		qi:        qi,
		id:        p.cfg.ID,
		rows:      make([]int, 0, n),
		buckets:   make([]uint32, 0, n),
		qitSchema: qitSchema,
		stSchema:  stSchema,
	}

	// Lay out the release: each signature bucket must expose exactly its
	// signature's value set; counterfeit records cover values with no live
	// member. Buckets are numbered in the lexicographic order of their
	// sorted signature value lists; distinct signatures never tie, so the
	// numbering does not depend on map iteration order.
	order := make([]int32, 0, len(members))
	for sig := range members {
		order = append(order, sig)
	}
	slices.SortFunc(order, func(a, b int32) int { return slices.Compare(next.sigs[a], next.sigs[b]) })
	pl.bucketNames = make([]string, len(order))
	done := 0
	for bucketID, sig := range order {
		signature := next.sigs[sig]
		bid := strconv.Itoa(bucketID)
		pl.bucketNames[bucketID] = bid
		counts := make(map[string]int)
		b := members[sig]
		for i, r := range b.rows {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			pl.rows = append(pl.rows, r)
			pl.buckets = append(pl.buckets, uint32(bucketID))
			// The published histogram lists the signature values; a member
			// whose current value left the signature is counted under its
			// original signature slot to keep the release m-invariant.
			v := sensCol.Dict[sensCol.Codes[r]]
			if !contains(signature, v) {
				v = signature[0]
			}
			counts[v]++
			id := idOf(r)
			pl.rel.Signatures[id] = signature
			// A newcomer's signature is fixed by the bucket it is published
			// in: with duplicate ids the last row wins, as when the release
			// is rebuilt from its tables. CounterfeitValue is reserved for
			// padding and never tracked as an individual.
			if i >= b.old && id != CounterfeitValue {
				next.ids[id] = sig
			}
			done++
			if p.cfg.Progress != nil {
				p.cfg.Progress(done, n)
			}
		}
		// Counterfeits for signature values with no member.
		for _, v := range signature {
			if counts[v] == 0 {
				pl.rows = append(pl.rows, -1)
				pl.buckets = append(pl.buckets, uint32(bucketID))
				counts[v]++
				pl.rel.Counterfeits++
			}
		}
		for _, v := range signature {
			pl.stRows = append(pl.stRows, dataset.Row{bid, v, strconv.Itoa(counts[v])})
		}
	}
	return pl, nil
}

// qit materializes the plan's QIT from snapshot's dictionary codes: the QI
// and id columns are gathered in plan order (counterfeits padded with
// SuppressedValue and CounterfeitValue) and joined with a coded bucket
// column, so no cell is copied as a string.
func (pl *plan) qit(snapshot *dataset.Table) (*dataset.Table, error) {
	src, err := snapshot.Project(append(slices.Clip(pl.qi), pl.id)...)
	if err != nil {
		return nil, err
	}
	pad := make(dataset.Row, len(pl.qi)+1)
	for j := range pl.qi {
		pad[j] = dataset.SuppressedValue
	}
	pad[len(pl.qi)] = CounterfeitValue
	sel, err := src.SelectPad(pl.rows, pad)
	if err != nil {
		return nil, err
	}
	cols := make([]*dataset.CodedColumn, len(pl.qi)+2)
	for j := 0; j <= len(pl.qi); j++ {
		if cols[j], err = sel.CodedColumn(j); err != nil {
			return nil, err
		}
	}
	// The schema puts the bucket before the id.
	cols[len(pl.qi)+1] = cols[len(pl.qi)]
	if cols[len(pl.qi)], err = dataset.NewCodedColumn(pl.bucketNames, pl.buckets); err != nil {
		return nil, err
	}
	return dataset.FromColumns(pl.qitSchema, cols)
}

// freshBucket groups never-published individuals, as snapshot rows, sharing
// one sensitive-value signature.
type freshBucket struct {
	signature []string
	members   []int
}

// partitionFresh groups never-published individuals (snapshot rows whose
// sensitive values sens holds) into buckets of exactly m distinct sensitive
// values using the Anatomy bucketization; the resulting value sets become
// their permanent signatures.
func partitionFresh(fresh []int, sens *dataset.CodedColumn, m int) ([]freshBucket, error) {
	// byValue[code] lists the rows still unplaced holding sens value code.
	byValue := make([][]int, sens.Cardinality())
	for _, r := range fresh {
		code := sens.Codes[r]
		byValue[code] = append(byValue[code], r)
	}
	var out []freshBucket
	values := make([]uint32, 0, len(byValue))
	for {
		values = values[:0]
		for code, rows := range byValue {
			if len(rows) > 0 {
				values = append(values, uint32(code))
			}
		}
		if len(values) < m {
			break
		}
		sort.Slice(values, func(i, j int) bool {
			ni, nj := len(byValue[values[i]]), len(byValue[values[j]])
			if ni != nj {
				return ni > nj
			}
			return sens.Dict[values[i]] < sens.Dict[values[j]]
		})
		chosen := values[:m]
		b := freshBucket{signature: make([]string, m)}
		for i, code := range chosen {
			b.signature[i] = sens.Dict[code]
			rows := byValue[code]
			b.members = append(b.members, rows[len(rows)-1])
			byValue[code] = rows[:len(rows)-1]
		}
		sort.Strings(b.signature)
		out = append(out, b)
	}
	// Residuals join an existing bucket whose signature contains their value,
	// value by value in sorted order: two residual values sharing a bucket
	// then always append in the same order, keeping the release deterministic.
	slices.SortFunc(values, func(a, b uint32) int { return strings.Compare(sens.Dict[a], sens.Dict[b]) })
	for _, code := range values {
		v := sens.Dict[code]
		for _, r := range byValue[code] {
			placed := false
			for i := range out {
				if contains(out[i].signature, v) {
					out[i].members = append(out[i].members, r)
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

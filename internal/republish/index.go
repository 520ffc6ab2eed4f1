package republish

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
)

// Index is the fixed per-individual signature index of an m-invariant
// release history: every individual published so far, mapped to the
// signature fixed at its first publication, plus the number of releases.
// It is all a publisher needs to extend the history — the earlier releases'
// tables are not — so a caller that keeps the Index of its last landed
// release publishes and checks the next one in O(snapshot), whatever the
// history depth.
//
// Signatures are interned: each distinct value multiset is stored once and
// individuals refer to it by position, so comparing two individuals'
// signatures is an integer comparison.
//
// An Index is immutable once a publisher hands it out (Publisher.Index):
// publishing derives the next index without touching the previous one, so a
// release that fails, or never lands, leaves the committed index as it was,
// and readers need no lock.
type Index struct {
	version int
	// sigs holds each interned signature in the order it was first fixed;
	// width[i] is the number of distinct values in sigs[i].
	sigs  [][]string
	width []int
	// byKey maps a signature's canonical key (its values sorted, with
	// multiplicity) to its position in sigs.
	byKey map[string]int32
	// ids maps every published individual to its signature's position.
	ids map[string]int32
}

func newIndex() *Index {
	return &Index{byKey: make(map[string]int32), ids: make(map[string]int32)}
}

// Version is the number of releases the index covers; the next release
// carries Version()+1.
func (x *Index) Version() int { return x.version }

// Check verifies one new release against the index of the history before
// it: every individual's signature has at least m distinct values, and every
// individual published before keeps its fixed signature. The earlier
// releases were checked when they joined the index, so the verdict equals
// CheckInvariance over the whole chain ending in rel; the detail uses the
// same wording. Of several violations the one with the smallest id is
// reported.
func (x *Index) Check(rel *Release, m int) (bool, string) {
	v := x.firstViolation(rel, m, make(map[sigRef]sigInfo))
	switch {
	case v == nil:
		return true, ""
	case v.prev == nil:
		return false, fmt.Sprintf("release %d: individual %s has signature %v with fewer than %d distinct values", rel.Version, v.id, v.sig, m)
	default:
		return false, fmt.Sprintf("individual %s changed signature from %v to %v", v.id, v.prev, v.sig)
	}
}

// violation is one individual breaking m-invariance: prev is nil when the
// signature is too narrow, and the fixed signature it drifted from otherwise.
type violation struct {
	id        string
	sig, prev []string
}

// firstViolation scans rel's individuals (counterfeit records are not
// individuals) against the index and returns the violation with the smallest
// id, or nil.
func (x *Index) firstViolation(rel *Release, m int, cache map[sigRef]sigInfo) *violation {
	var out *violation
	for id, sig := range rel.Signatures {
		if id == CounterfeitValue || (out != nil && id >= out.id) {
			continue
		}
		prev, fixed := x.ids[id]
		var width int
		var same bool
		if fixed && refOf(sig) == refOf(x.sigs[prev]) {
			// The publisher hands out the interned slice itself, so the
			// common case needs no canonicalization.
			width, same = x.width[prev], true
		} else {
			info := x.resolve(sig, cache)
			width, same = info.width, fixed && info.id == prev
		}
		switch {
		case width < m:
			out = &violation{id: id, sig: sig}
		case fixed && !same:
			out = &violation{id: id, sig: sig, prev: x.sigs[prev]}
		}
	}
	return out
}

// absorb fixes the signature of every individual rel publishes for the first
// time and advances the version; it mutates x, so it runs only on an index
// under construction.
func (x *Index) absorb(rel *Release, cache map[sigRef]sigInfo) {
	for id, sig := range rel.Signatures {
		if id == CounterfeitValue {
			continue
		}
		if _, ok := x.ids[id]; !ok {
			x.ids[id] = x.intern(sig, cache)
		}
	}
	x.version = rel.Version
}

// clone returns a copy the caller may extend without affecting x. The
// signature slices are clipped so appends reallocate instead of writing into
// x's backing arrays.
func (x *Index) clone() *Index {
	return &Index{
		version: x.version,
		sigs:    x.sigs[:len(x.sigs):len(x.sigs)],
		width:   x.width[:len(x.width):len(x.width)],
		byKey:   maps.Clone(x.byKey),
		ids:     maps.Clone(x.ids),
	}
}

// intern returns sig's position, adding it to the index if no signature with
// the same values is fixed yet.
func (x *Index) intern(sig []string, cache map[sigRef]sigInfo) int32 {
	info := x.resolve(sig, cache)
	if info.id >= 0 {
		return info.id
	}
	id := int32(len(x.sigs))
	x.sigs = append(x.sigs, sig)
	x.width = append(x.width, info.width)
	x.byKey[info.key] = id
	return id
}

// sigRef identifies a signature slice. Releases share one slice per bucket,
// so resolving by slice identity canonicalizes once per bucket rather than
// once per individual.
type sigRef struct {
	first *string
	n     int
}

func refOf(sig []string) sigRef {
	if len(sig) == 0 {
		return sigRef{}
	}
	return sigRef{&sig[0], len(sig)}
}

// sigInfo is a resolved signature: its position in the index (-1 when no
// equal signature is fixed), distinct-value count and canonical key.
type sigInfo struct {
	id    int32
	width int
	key   string
}

// resolve canonicalizes sig (once per slice: the cache keeps the key and
// width) and looks its key up in the index. The position is looked up afresh
// on every call, since interning can fix a key after it was first cached.
func (x *Index) resolve(sig []string, cache map[sigRef]sigInfo) sigInfo {
	ref := refOf(sig)
	info, ok := cache[ref]
	if !ok {
		sorted := append([]string(nil), sig...)
		sort.Strings(sorted)
		var b strings.Builder
		for i, v := range sorted {
			if i == 0 || v != sorted[i-1] {
				info.width++
			}
			// Length-prefixed, so no value content can forge a separator.
			b.WriteString(strconv.Itoa(len(v)))
			b.WriteByte(':')
			b.WriteString(v)
		}
		info.key = b.String()
		cache[ref] = info
	}
	info.id = -1
	if id, ok := x.byKey[info.key]; ok {
		info.id = id
	}
	return info
}

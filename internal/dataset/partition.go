package dataset

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/ppdp/ppdp/internal/parallel"
)

// EquivalenceClass is a group of row indices that share identical values on a
// set of grouping columns (normally the quasi-identifier). The class is
// identified by its value tuple.
type EquivalenceClass struct {
	// Values are the shared grouping values, in grouping-column order.
	Values []string
	// Rows are the indices (into the grouped table) of the class members.
	Rows []int
}

// Size returns the number of records in the class.
func (ec EquivalenceClass) Size() int { return len(ec.Rows) }

// GroupBy partitions the table into equivalence classes over the named
// columns: one class per distinct tuple of values. Classes are ordered
// lexicographically by value tuple (first column first, each value compared
// byte-wise), and each class lists its member row indices in table order.
//
// Grouping runs over the dictionary codes: a row's key is the mixed-radix
// combination of its value codes, one uint64 that identifies the tuple
// exactly, so the hot loop does one integer map operation per row and
// allocates nothing per row. Combining the values' lexicographic ranks the
// same way gives a key whose integer order is the tuple order, so classes
// are sorted without comparing strings. When the cardinality product of
// the columns overflows 64 bits, the columns are grouped in runs that fit:
// each run's classes are numbered in class order, and that number is the
// leading digit of the next run's key. Member-row sets and value slices
// are carved out of shared arenas, and each class's values are read from
// its first row's codes.
func (t *Table) GroupBy(columns ...string) ([]EquivalenceClass, error) {
	cols := make([]int, len(columns))
	for i, c := range columns {
		ci, err := t.schema.Index(c)
		if err != nil {
			return nil, err
		}
		cols[i] = ci
	}
	n := t.Len()
	if n == 0 {
		return []EquivalenceClass{}, nil
	}
	k := len(cols)
	coded := make([]*CodedColumn, k)
	radix := make([]uint64, k)
	for i, ci := range cols {
		cc, err := t.CodedColumn(ci)
		if err != nil {
			return nil, err
		}
		coded[i] = cc
		radix[i] = uint64(cc.Cardinality())
	}

	// Each run assigns every row to a group via its exact combined key (see
	// groupAssign), sorts the groups by rank key, and renumbers rowGroup to
	// class positions, which lead the next run's keys. A run always takes at
	// least one column: a class count and a cardinality are both at most
	// the row count, so their product fits.
	var rowGroup []int32
	var counts []int32
	leadCard := uint64(1)
	for lo := 0; ; {
		hi, prod := lo, leadCard
		for hi < k && prod <= math.MaxUint64/radix[hi] {
			prod *= radix[hi]
			hi++
		}
		var groups []grp
		groups, rowGroup = groupAssign(rowGroup, coded[lo:hi], radix[lo:hi], n, t.scanParallelism())
		counts = sortGroups(groups, rowGroup, coded[lo:hi], radix[lo:hi])
		leadCard = uint64(len(counts))
		if lo = hi; lo == k {
			break
		}
	}

	// Scatter rows into one shared arena, preserving table order within
	// each class.
	offs := make([]int32, len(counts)+1)
	for ci, c := range counts {
		offs[ci+1] = offs[ci] + c
	}
	rowsArena := make([]int, n)
	cursor := slices.Clone(offs[:len(counts)])
	for r, ci := range rowGroup {
		rowsArena[cursor[ci]] = r
		cursor[ci]++
	}

	out := make([]EquivalenceClass, len(counts))
	valuesArena := make([]string, len(counts)*k)
	for ci := range out {
		lo, hi := offs[ci], offs[ci+1]
		values := valuesArena[ci*k : (ci+1)*k : (ci+1)*k]
		first := rowsArena[lo]
		for i, cc := range coded {
			values[i] = cc.Dict[cc.Codes[first]]
		}
		out[ci] = EquivalenceClass{Values: values, Rows: rowsArena[lo:hi:hi]}
	}
	return out, nil
}

// sortGroups orders one run's groups by rank key, renumbers rowGroup in
// place to each row's class position, and returns the class sizes in class
// order. A group key's leading digit (above the run's columns) is the
// previous run's class position, which is already in class order.
func sortGroups(groups []grp, rowGroup []int32, coded []*CodedColumn, radix []uint64) []int32 {
	type ranked struct {
		rk uint64
		gi int32
	}
	perm := make([]ranked, len(groups))
	for gi, g := range groups {
		key := g.key
		rk := uint64(0)
		weight := uint64(1)
		for i := len(coded) - 1; i >= 0; i-- {
			rk += uint64(coded[i].ranks[key%radix[i]]) * weight
			weight *= radix[i]
			key /= radix[i]
		}
		perm[gi] = ranked{rk: rk + key*weight, gi: int32(gi)}
	}
	slices.SortFunc(perm, func(a, b ranked) int { return cmp.Compare(a.rk, b.rk) })
	pos := make([]int32, len(groups))
	counts := make([]int32, len(groups))
	for ci, p := range perm {
		pos[p.gi] = int32(ci)
		counts[ci] = groups[p.gi].count
	}
	for r, gi := range rowGroup {
		rowGroup[r] = pos[gi]
	}
	return counts
}

// grp is pass-1 grouping state: one entry per distinct combined key, indexed
// in first-appearance order over the table's rows.
type grp struct {
	key   uint64
	count int32
}

// gbPartial is one row chunk's partial grouping state. Group ids are local
// to the chunk until merge renumbers them through the accumulated
// first-appearance map.
type gbPartial struct {
	lo, hi int
	first  map[uint64]int32
	groups []grp
}

// groupByMinChunk is the smallest chunk the parallel grouping pass will
// split off; a variable so equivalence tests can force multi-chunk runs on
// small fixtures.
var groupByMinChunk = parallel.MinChunk

// groupAssign computes, for every row, the id of its group (rowGroup) and
// the per-group key/count table, with groups numbered in first-appearance
// order. A non-nil lead holds each row's leading key digit, above the
// columns' digits, and is overwritten with the row's group id. workers > 1 scans contiguous row chunks concurrently into partial
// states and merges them strictly left to right.
//
// Determinism: chunk 0's local first-appearance order is by construction a
// prefix of the global one, and merging chunk i+1 renumbers its local ids
// through the accumulated map — appending genuinely new keys in their local
// (= global remaining) first-appearance order. Inductively the merged group
// numbering, counts, and row assignments equal the sequential scan's exactly
// for every worker count; byte-identity of GroupBy's output follows. Each
// chunk writes only its own rowGroup[lo:hi] segment, so the shared slice
// needs no synchronization beyond the fold's completion barrier.
func groupAssign(lead []int32, coded []*CodedColumn, radix []uint64, n, workers int) ([]grp, []int32) {
	rowGroup := lead
	if rowGroup == nil {
		rowGroup = make([]int32, n)
	}
	scan := func(lo, hi int) (*gbPartial, error) {
		p := &gbPartial{
			lo:     lo,
			hi:     hi,
			first:  make(map[uint64]int32, (hi-lo)/4+8),
			groups: make([]grp, 0, 64),
		}
		for r := lo; r < hi; r++ {
			key := uint64(0)
			if lead != nil {
				key = uint64(lead[r])
			}
			for i, cc := range coded {
				key = key*radix[i] + uint64(cc.Codes[r])
			}
			gi, ok := p.first[key]
			if !ok {
				gi = int32(len(p.groups))
				p.groups = append(p.groups, grp{key: key})
				p.first[key] = gi
			}
			p.groups[gi].count++
			rowGroup[r] = gi
		}
		return p, nil
	}
	merge := func(acc, next *gbPartial) (*gbPartial, error) {
		remap := make([]int32, len(next.groups))
		for li, g := range next.groups {
			gi, ok := acc.first[g.key]
			if !ok {
				gi = int32(len(acc.groups))
				acc.groups = append(acc.groups, grp{key: g.key})
				acc.first[g.key] = gi
			}
			acc.groups[gi].count += g.count
			remap[li] = gi
		}
		for r := next.lo; r < next.hi; r++ {
			rowGroup[r] = remap[rowGroup[r]]
		}
		acc.hi = next.hi
		return acc, nil
	}
	p, _ := parallel.Fold(n, workers, groupByMinChunk, scan, merge)
	return p.groups, rowGroup
}

// GroupByQuasiIdentifier partitions the table into equivalence classes over
// all quasi-identifier columns of its schema.
func (t *Table) GroupByQuasiIdentifier() ([]EquivalenceClass, error) {
	return t.GroupBy(t.schema.QuasiIdentifierNames()...)
}

// MinClassSize returns the smallest equivalence-class size, or 0 if there are
// no classes.
func MinClassSize(classes []EquivalenceClass) int {
	min := 0
	for i, c := range classes {
		if i == 0 || c.Size() < min {
			min = c.Size()
		}
	}
	return min
}

// SensitiveDistribution returns, for one equivalence class, the absolute
// frequency of each value of the named sensitive column among the class
// members.
func (t *Table) SensitiveDistribution(class EquivalenceClass, sensitive string) (map[string]int, error) {
	cc, err := t.CodedColumnByName(sensitive)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for _, r := range class.Rows {
		if r < 0 || r >= t.n {
			return nil, fmt.Errorf("%w: %d (table has %d rows)", ErrRowIndex, r, t.n)
		}
		out[cc.Dict[cc.Codes[r]]]++
	}
	return out, nil
}

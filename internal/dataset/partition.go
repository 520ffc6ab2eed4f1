package dataset

import (
	"cmp"
	"errors"
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
	coded, radix, err := t.groupingColumns(columns)
	if err != nil {
		return nil, err
	}
	n := t.Len()
	if n == 0 {
		return []EquivalenceClass{}, nil
	}

	// Each run assigns every row to a group via its exact combined key (see
	// groupAssign), sorts the groups by rank key, and renumbers rowGroup to
	// class positions, which lead the next run's keys.
	var rowGroup, counts []int32
	for lo, leadCard := 0, uint64(1); ; {
		hi := runEnd(radix, lo, leadCard)
		var groups []grp
		var pos []int32
		groups, rowGroup = groupAssign(rowGroup, coded[lo:hi], radix[lo:hi], n, t.scanParallelism())
		pos, counts = sortGroups(groups, coded[lo:hi], radix[lo:hi])
		for r, gi := range rowGroup {
			rowGroup[r] = pos[gi]
		}
		leadCard = uint64(len(counts))
		if lo = hi; lo == len(coded) {
			break
		}
	}
	return assembleClasses(coded, rowGroup, counts), nil
}

// GroupByPartition returns exactly what GroupBy(columns...) returns, derived
// from groups, a partition of the table's rows whose members agree on every
// named column — the groups a partitioning algorithm recoded. Each group is
// keyed once, from its first row's codes, with GroupBy's rank keys and
// column runs; groups with equal keys merge into one class, and one pass
// over the rows scatters them into the classes. So the cost is one sort of
// the groups plus O(rows × columns) compares, with no per-row map.
//
// The groups must cover every row exactly once, and every row must hold its
// group's code on every named column; otherwise ErrNotPartition is
// returned, never a wrong grouping. The check compares each cell with its
// group's first row and allocates nothing beyond the row-to-group index
// the scatter uses.
func (t *Table) GroupByPartition(groups [][]int, columns ...string) ([]EquivalenceClass, error) {
	coded, radix, err := t.groupingColumns(columns)
	if err != nil {
		return nil, err
	}
	rowGroup, err := t.partitionRows(groups, columns, coded)
	if err != nil {
		return nil, err
	}
	if t.Len() == 0 {
		return []EquivalenceClass{}, nil
	}

	// Each run keys every group from its first row, led by the group's
	// class position from the previous run, and sorts the groups by rank
	// key; sortGroups merges groups whose keys are equal.
	keyed := make([]grp, len(groups))
	var class, counts []int32
	for lo, leadCard := 0, uint64(1); ; {
		hi := runEnd(radix, lo, leadCard)
		for gi, g := range groups {
			key := uint64(0)
			if class != nil {
				key = uint64(class[gi])
			}
			for i := lo; i < hi; i++ {
				key = key*radix[i] + uint64(coded[i].Codes[g[0]])
			}
			keyed[gi] = grp{key: key, count: int32(len(g))}
		}
		class, counts = sortGroups(keyed, coded[lo:hi], radix[lo:hi])
		leadCard = uint64(len(counts))
		if lo = hi; lo == len(coded) {
			break
		}
	}
	for r, gi := range rowGroup {
		rowGroup[r] = class[gi]
	}
	return assembleClasses(coded, rowGroup, counts), nil
}

// ErrNotPartition is returned by GroupByPartition when its groups do not
// partition the table's rows, or a group's rows disagree on a grouping
// column.
var ErrNotPartition = errors.New("dataset: groups do not partition the table by the grouping columns")

// groupingColumns resolves the named columns to their coded columns and
// cardinalities (the radix of each key digit).
func (t *Table) groupingColumns(columns []string) ([]*CodedColumn, []uint64, error) {
	coded := make([]*CodedColumn, len(columns))
	radix := make([]uint64, len(columns))
	for i, c := range columns {
		ci, err := t.schema.Index(c)
		if err != nil {
			return nil, nil, err
		}
		if coded[i], err = t.CodedColumn(ci); err != nil {
			return nil, nil, err
		}
		radix[i] = uint64(coded[i].Cardinality())
	}
	return coded, radix, nil
}

// runEnd returns the end of the column run that starts at lo: the longest
// run whose cardinality product, times leadCard (the previous run's class
// count, the key's leading digit), fits 64 bits. A run always takes at
// least one column when one is left: a class count and a cardinality are
// both at most the row count, so their product fits.
func runEnd(radix []uint64, lo int, leadCard uint64) int {
	hi, prod := lo, leadCard
	for hi < len(radix) && prod <= math.MaxUint64/radix[hi] {
		prod *= radix[hi]
		hi++
	}
	return hi
}

// partitionRows checks that groups partition the table's rows and that
// every row holds its group's first row's code on every coded column, and
// returns each row's group index.
func (t *Table) partitionRows(groups [][]int, columns []string, coded []*CodedColumn) ([]int32, error) {
	n := t.Len()
	rowGroup := make([]int32, n)
	for r := range rowGroup {
		rowGroup[r] = -1
	}
	for gi, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("%w: group %d is empty", ErrNotPartition, gi)
		}
		for _, r := range g {
			if r < 0 || r >= n {
				return nil, fmt.Errorf("%w: group %d holds row %d (table has %d rows)", ErrNotPartition, gi, r, n)
			}
			if rowGroup[r] >= 0 {
				return nil, fmt.Errorf("%w: row %d is in groups %d and %d", ErrNotPartition, r, rowGroup[r], gi)
			}
			rowGroup[r] = int32(gi)
		}
	}
	for r, gi := range rowGroup {
		if gi < 0 {
			return nil, fmt.Errorf("%w: row %d is in no group", ErrNotPartition, r)
		}
	}
	for i, cc := range coded {
		for gi, g := range groups {
			want := cc.Codes[g[0]]
			for _, r := range g[1:] {
				if cc.Codes[r] != want {
					return nil, fmt.Errorf("%w: group %d: rows %d and %d differ on %q", ErrNotPartition, gi, g[0], r, columns[i])
				}
			}
		}
	}
	return rowGroup, nil
}

// assembleClasses scatters the rows into one shared arena by class
// (rowGroup holds each row's class position, counts each class's size),
// preserving table order within each class, and reads each class's values
// from its first row's codes.
func assembleClasses(coded []*CodedColumn, rowGroup, counts []int32) []EquivalenceClass {
	k := len(coded)
	offs := make([]int32, len(counts)+1)
	for ci, c := range counts {
		offs[ci+1] = offs[ci] + c
	}
	rowsArena := make([]int, len(rowGroup))
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
	return out
}

// sortGroups orders one run's groups by rank key, merging groups whose keys
// are equal into one class, and returns each group's class position and
// the class sizes in class order. A group key's leading digit (above the
// run's columns) is the previous run's class position, which is already in
// class order. Rank keys are exact (ranks are a bijection of codes), so
// equal rank keys mean equal value tuples.
func sortGroups(groups []grp, coded []*CodedColumn, radix []uint64) (pos, counts []int32) {
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
	pos = make([]int32, len(groups))
	counts = make([]int32, 0, len(groups))
	for i, p := range perm {
		if i == 0 || p.rk != perm[i-1].rk {
			counts = append(counts, 0)
		}
		ci := len(counts) - 1
		pos[p.gi] = int32(ci)
		counts[ci] += groups[p.gi].count
	}
	return pos, counts
}

// grp is a group's combined key and row count. GroupBy's pass-1 state holds
// one per distinct key, indexed in first-appearance order over the table's
// rows; GroupByPartition's holds one per caller group, keys not distinct.
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

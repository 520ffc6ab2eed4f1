package mondrian

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/privacy"
	"github.com/ppdp/ppdp/internal/synth"
)

// rv pairs a row with its numeric value during an oracle split.
type rv struct {
	row int
	val float64
}

// cells is a numeric column as the oracles read it, parsed cell by cell
// from the table's strings: vals[row] is the number the trimmed cell parses
// to, meaningful only where ok[row].
type cells struct {
	vals []float64
	ok   []bool
}

// parseCells reads column col of tbl row by row.
func parseCells(tbl *dataset.Table, col int) cells {
	c := cells{vals: make([]float64, tbl.Len()), ok: make([]bool, tbl.Len())}
	for row := range c.vals {
		v, _ := tbl.Value(row, col)
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		c.vals[row], c.ok[row] = f, err == nil
	}
	return c
}

// usable reports whether row holds a number with a place in the value
// order: a cell that parses to anything but NaN.
func (c cells) usable(row int) bool { return c.ok[row] && !math.IsNaN(c.vals[row]) }

// splitNumericOracle is the comparison-sort numeric split the rank-based one
// replaced, kept as the differential-test oracle: it sorts (value, row)
// pairs of the partition and cuts at the median. A NaN cell, like a cell
// that does not parse, makes the partition unsplittable on the dimension.
func splitNumericOracle(c cells, rows []int, strict bool) (lhs, rhs []int, ok bool) {
	vals := make([]rv, 0, len(rows))
	for _, row := range rows {
		if !c.usable(row) {
			return nil, nil, false
		}
		vals = append(vals, rv{row, c.vals[row]})
	}
	slices.SortFunc(vals, func(a, b rv) int {
		if a.val != b.val {
			if a.val < b.val {
				return -1
			}
			return 1
		}
		return a.row - b.row
	})
	if vals[0].val == vals[len(vals)-1].val {
		return nil, nil, false
	}
	arena := make([]int, len(vals))
	for i, v := range vals {
		arena[i] = v.row
	}
	cut := 0
	if strict {
		median := vals[len(vals)/2].val
		for cut < len(vals) && vals[cut].val < median {
			cut++
		}
		if cut == 0 {
			for cut < len(vals) && vals[cut].val <= median {
				cut++
			}
		}
	} else {
		cut = len(vals) / 2
	}
	if cut == 0 || cut == len(vals) {
		return nil, nil, false
	}
	return arena[:cut:cut], arena[cut:], true
}

// splitNumericRows is splitNumeric over the rank range of rows on dimension
// dim, as partition's width scan would measure it.
func (r *runner) splitNumericRows(rows []int, dim int, sc *scratch) (lhs, rhs []int, ok bool) {
	w := dimWidth{dim: dim}
	w.lo, w.hi, w.complete = rankRange(r.ranks[dim], rows)
	return r.splitNumeric(rows, w, sc)
}

// sortCategorical is the string form of the categorical split order that
// sortCodes implements over interned codes: numerically when every value
// parses as a number other than NaN, lexicographically otherwise. The sort
// is stable, so values that parse to the same number keep their input order;
// the split oracle passes values in first-appearance order, which is the
// code order sortCodes breaks ties on.
func sortCategorical(values []string) {
	numeric := true
	for _, v := range values {
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil || math.IsNaN(f) {
			numeric = false
			break
		}
	}
	if numeric {
		sort.SliceStable(values, func(i, j int) bool {
			a, _ := strconv.ParseFloat(values[i], 64)
			b, _ := strconv.ParseFloat(values[j], 64)
			return a < b
		})
		return
	}
	sort.Strings(values)
}

// splitCategoricalOracle is the string-keyed categorical split: it reads
// the partition's cells, orders the distinct values with sortCategorical
// (in first-appearance order within the whole column), fills the left side
// value by value until it holds at least half the rows, and keeps each
// value's rows in partition order.
func splitCategoricalOracle(tbl *dataset.Table, col int, rows []int) (lhs, rhs []int, ok bool) {
	firstSeen := map[string]int{}
	for row := 0; row < tbl.Len(); row++ {
		v, _ := tbl.Value(row, col)
		if _, seen := firstSeen[v]; !seen {
			firstSeen[v] = row
		}
	}
	byValue := map[string][]int{}
	var values []string
	for _, row := range rows {
		v, _ := tbl.Value(row, col)
		if _, seen := byValue[v]; !seen {
			values = append(values, v)
		}
		byValue[v] = append(byValue[v], row)
	}
	if len(values) < 2 {
		return nil, nil, false
	}
	sort.Slice(values, func(a, b int) bool { return firstSeen[values[a]] < firstSeen[values[b]] })
	sortCategorical(values)
	var ordered []int
	cut := 0
	for _, v := range values {
		if len(ordered) < len(rows)/2 {
			cut = len(ordered) + len(byValue[v])
		}
		ordered = append(ordered, byValue[v]...)
	}
	if cut == 0 || cut == len(rows) {
		return nil, nil, false
	}
	return ordered[:cut:cut], ordered[cut:], true
}

// categoricalWidthOracle is the distinct-value count of a categorical
// dimension over rows, normalized by the column's distinct-value count.
func categoricalWidthOracle(tbl *dataset.Table, col int, rows []int) float64 {
	domain := map[string]bool{}
	for row := 0; row < tbl.Len(); row++ {
		v, _ := tbl.Value(row, col)
		domain[v] = true
	}
	seen := map[string]bool{}
	for _, row := range rows {
		v, _ := tbl.Value(row, col)
		seen[v] = true
	}
	if len(seen) <= 1 {
		return 0
	}
	return float64(len(seen)) / float64(len(domain))
}

// widthOracle is the float-scanning numeric width the rank-based one
// replaced: the value range over rows divided by the range over all rows,
// both halved so that values near ±MaxFloat64 cannot overflow them. NaN
// cells are skipped like cells that do not parse.
func widthOracle(c cells, rows, all []int) float64 {
	span := halfRange(c, all)
	if span <= 0 {
		span = 1
	}
	return halfRange(c, rows) / span
}

// halfRange is half the distance between the smallest and largest value
// among rows, or 0 when none has a value.
func halfRange(c cells, rows []int) float64 {
	lo, hi := 0.0, 0.0
	first := true
	for _, row := range rows {
		v := c.vals[row]
		if !c.usable(row) {
			continue
		}
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	return hi/2 - lo/2
}

// referenceGroups runs a sequential Mondrian recursion that measures,
// orders and splits every dimension with the oracles above — only the
// privacy gate reuses the runner — returning the groups in the released
// order and the split count.
func referenceGroups(tb testing.TB, tbl *dataset.Table, cfg Config) ([][]int, int) {
	tb.Helper()
	qi := cfg.QuasiIdentifiers
	if len(qi) == 0 {
		qi = tbl.Schema().QuasiIdentifierNames()
	}
	r, err := newRunner(context.Background(), tbl, cfg, qi)
	if err != nil {
		tb.Fatal(err)
	}
	floats := make([]cells, len(qi))
	for i := range qi {
		if r.numeric[i] {
			floats[i] = parseCells(tbl, r.cols[i])
		}
	}
	all := make([]int, tbl.Len())
	for i := range all {
		all[i] = i
	}
	// order lists every dimension, dead ones too, by decreasing width with
	// ties in dimension order; no width the test tables produce is NaN.
	order := func(rows []int) []int {
		dims := make([]int, len(qi))
		widths := make([]float64, len(qi))
		for i := range qi {
			dims[i] = i
			if r.numeric[i] {
				widths[i] = widthOracle(floats[i], rows, all)
			} else {
				widths[i] = categoricalWidthOracle(tbl, r.cols[i], rows)
			}
		}
		sort.SliceStable(dims, func(a, b int) bool { return widths[dims[a]] > widths[dims[b]] })
		return dims
	}
	var groups [][]int
	splits := 0
	var rec func(rows []int)
	rec = func(rows []int) {
		for _, dim := range order(rows) {
			var lhs, rhs []int
			var ok bool
			if r.numeric[dim] {
				lhs, rhs, ok = splitNumericOracle(floats[dim], rows, cfg.Strict)
			} else {
				lhs, rhs, ok = splitCategoricalOracle(tbl, r.cols[dim], rows)
			}
			if !ok {
				continue
			}
			okL, errL := r.allowable(lhs)
			okR, errR := r.allowable(rhs)
			if errL == nil && errR == nil && okL && okR {
				splits++
				rec(lhs)
				rec(rhs)
				return
			}
		}
		groups = append(groups, rows)
	}
	rec(all)
	sort.Slice(groups, func(a, b int) bool { return slices.Min(groups[a]) < slices.Min(groups[b]) })
	return groups, splits
}

// spellingsTable holds a numeric and a categorical quasi-identifier whose
// values are written in several spellings of the same numbers ("5", "5.0",
// " 5", "1e3", ...), so splits meet ties between distinct dictionary codes.
// With withNaN, a few cells of both hold "NaN", which parses as a float but
// has no place in a numeric order.
func spellingsTable(n int, seed int64, withNaN bool) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "score", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "zip", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "band", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "outcome", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	spell := []func(int) string{
		func(v int) string { return fmt.Sprint(v) },
		func(v int) string { return fmt.Sprintf("%d.0", v) },
		func(v int) string { return fmt.Sprintf(" %d", v) },
		func(v int) string { return fmt.Sprintf("%de0", v) },
	}
	rows := make([]dataset.Row, n)
	for i := range rows {
		score := spell[rng.Intn(len(spell))](rng.Intn(40))
		if rng.Intn(25) == 0 {
			score = "1e3"
		}
		zip := spell[rng.Intn(len(spell))](13000 + rng.Intn(8))
		if withNaN && rng.Intn(30) == 0 {
			zip = "NaN"
		}
		if withNaN && rng.Intn(150) == 0 {
			score = "NaN"
		}
		rows[i] = dataset.Row{score, zip, fmt.Sprintf("b%d", rng.Intn(5)), fmt.Sprintf("o%d", rng.Intn(4))}
	}
	t, err := dataset.FromRows(schema, rows)
	if err != nil {
		panic(err)
	}
	return t
}

// wideTable holds a numeric quasi-identifier whose values run from -1e308 to
// 1e308, so its span exceeds the float range unless it is halved: an
// unhalved width on it reads 0 or NaN while the column still splits. A
// second numeric and a categorical quasi-identifier compete with it for the
// split.
func wideTable(n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "wide", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "score", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "band", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "outcome", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	rows := make([]dataset.Row, n)
	for i := range rows {
		wide := (2*rng.Float64() - 1) * 1e308
		switch i {
		case 0:
			wide = -1e308
		case 1:
			wide = 1e308
		}
		rows[i] = dataset.Row{
			strconv.FormatFloat(wide, 'g', -1, 64),
			fmt.Sprint(rng.Intn(40)),
			fmt.Sprintf("b%d", rng.Intn(5)),
			fmt.Sprintf("o%d", rng.Intn(4)),
		}
	}
	t, err := dataset.FromRows(schema, rows)
	if err != nil {
		panic(err)
	}
	return t
}

// manyWideTable is wideTable's wide column beside thirteen more
// quasi-identifiers, alternately numeric and categorical, of cardinality 1
// to 13: more than twelve dimensions are live at the root, where the width
// sort leaves insertion sort, and the low-cardinality ones die within a few
// splits, so the live list shrinks while the wide column still splits.
func manyWideTable(n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	attrs := []dataset.Attribute{{Name: "wide", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric}}
	for q := range 13 {
		typ := dataset.Numeric
		if q%2 == 1 {
			typ = dataset.Categorical
		}
		attrs = append(attrs, dataset.Attribute{Name: fmt.Sprintf("q%d", q), Kind: dataset.QuasiIdentifier, Type: typ})
	}
	attrs = append(attrs, dataset.Attribute{Name: "outcome", Kind: dataset.Sensitive, Type: dataset.Categorical})
	schema := dataset.MustSchema(attrs...)
	rows := make([]dataset.Row, n)
	for i := range rows {
		wide := (2*rng.Float64() - 1) * 1e308
		switch i {
		case 0:
			wide = -1e308
		case 1:
			wide = 1e308
		}
		row := dataset.Row{strconv.FormatFloat(wide, 'g', -1, 64)}
		for q := range 13 {
			row = append(row, fmt.Sprint(rng.Intn(q+1)))
		}
		rows[i] = append(row, fmt.Sprintf("o%d", rng.Intn(4)))
	}
	t, err := dataset.FromRows(schema, rows)
	if err != nil {
		panic(err)
	}
	return t
}

// TestSplitMatchesOracle checks that the rank-based recursion produces
// exactly the oracle's groups — including the row order inside each group —
// and split count, for strict and relaxed partitioning over a range of k,
// with and without extra criteria, at one and several workers.
func TestSplitMatchesOracle(t *testing.T) {
	// The wide tables' k values include 2k > n, where the root settles at
	// once; their span near the float range guards the halved width. The
	// oracle sorts every dimension, dead ones too, with a stable sort, so
	// manywide also checks that sorting only the live dimensions keeps their
	// order where the width sort runs past insertion sort.
	tables := []struct {
		name      string
		tbl       *dataset.Table
		sensitive string
		ks        []int
	}{
		{"census", synth.Census(1500, 21), "salary", []int{2, 5, 10, 50}},
		{"hospital", synth.Hospital(1200, 22), "diagnosis", []int{2, 5, 10, 50}},
		{"spellings", spellingsTable(600, 23, false), "outcome", []int{2, 5, 10, 50}},
		{"nan", spellingsTable(600, 24, true), "outcome", []int{2, 5, 10, 50}},
		{"wide", wideTable(400, 25), "outcome", []int{1, 2, 5, 201}},
		{"manywide", manyWideTable(400, 26), "outcome", []int{1, 2, 5, 201}},
	}
	for _, tc := range tables {
		extras := map[string][]privacy.Criterion{
			"none": nil,
			"ldiv": {privacy.DistinctLDiversity{L: 2, Sensitive: tc.sensitive}},
			"tc":   {privacy.TCloseness{T: 0.4, Sensitive: tc.sensitive}},
		}
		for _, strict := range []bool{false, true} {
			for _, k := range tc.ks {
				for name, extra := range extras {
					cfg := Config{K: k, Strict: strict, Extra: extra}
					t.Run(fmt.Sprintf("%s/strict=%v/k=%d/%s", tc.name, strict, k, name), func(t *testing.T) {
						want, wantSplits := referenceGroups(t, tc.tbl, cfg)
						for _, workers := range []int{1, 4} {
							cfg.Workers = workers
							res, err := Anonymize(tc.tbl, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(res.Groups, want) {
								t.Fatalf("workers=%d: groups differ from the oracle (%d vs %d groups)", workers, len(res.Groups), len(want))
							}
							if res.Splits != wantSplits {
								t.Fatalf("workers=%d: %d splits, oracle %d", workers, res.Splits, wantSplits)
							}
						}
					})
				}
			}
		}
	}
}

// TestSplitNumericMatchesOracleOnPartitions compares single numeric splits
// on partitions of arbitrary row order and size.
func TestSplitNumericMatchesOracleOnPartitions(t *testing.T) {
	tbl := synth.Census(3000, 31)
	rng := rand.New(rand.NewSource(32))
	for _, strict := range []bool{false, true} {
		r, err := newRunner(context.Background(), tbl, Config{K: 1, Strict: strict}, []string{"age", "hours-per-week"})
		if err != nil {
			t.Fatal(err)
		}
		sc := r.newScratch()
		for dim := range r.qi {
			c := parseCells(tbl, r.cols[dim])
			for trial := 0; trial < 200; trial++ {
				rows := rng.Perm(tbl.Len())[:1+rng.Intn(300)]
				gotL, gotR, gotOK := r.splitNumericRows(rows, dim, sc)
				wantL, wantR, wantOK := splitNumericOracle(c, rows, strict)
				if gotOK != wantOK || !slices.Equal(gotL, wantL) || !slices.Equal(gotR, wantR) {
					t.Fatalf("strict=%v dim=%d trial %d (%d rows): split differs from the oracle", strict, dim, trial, len(rows))
				}
			}
		}
	}
}

// TestNaNDimensionUnsplittable pins the NaN rule: "NaN" parses as a float,
// but a NaN cell has no place in the value order, so it is treated exactly
// like a cell that does not parse — the numeric dimension becomes
// unsplittable for every partition holding it, and the run is deterministic.
func TestNaNDimensionUnsplittable(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "zip", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "diag", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	build := func(missing string) *dataset.Table {
		rng := rand.New(rand.NewSource(41))
		rows := make([]dataset.Row, 400)
		for i := range rows {
			age := fmt.Sprint(18 + rng.Intn(60))
			if i%37 == 5 {
				age = missing
			}
			rows[i] = dataset.Row{age, fmt.Sprintf("z%d", rng.Intn(12)), fmt.Sprintf("d%d", rng.Intn(3))}
		}
		tbl, err := dataset.FromRows(schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	withNaN, withText := build("NaN"), build("unknown")
	for _, strict := range []bool{false, true} {
		cfg := Config{K: 3, Strict: strict}
		want, err := Anonymize(withText, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			got, err := Anonymize(withNaN, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Groups, want.Groups) || got.Splits != want.Splits {
				t.Fatalf("strict=%v workers=%d: NaN ages partition differently from unparsable ones", strict, workers)
			}
		}
		// A partition holding a NaN age (row 5) never splits on age.
		r, err := newRunner(context.Background(), withNaN, cfg, []string{"age", "zip"})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := r.splitNumericRows([]int{0, 5, 6, 7}, 0, r.newScratch()); ok {
			t.Fatal("partition with a NaN age split on age")
		}
	}
}

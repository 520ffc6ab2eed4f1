package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// splitClasses returns a partition of the table's rows whose groups agree
// on every column of classes: each class is cut into random pieces, each
// piece's rows shuffled, and the pieces shuffled, so several groups share a
// value tuple and no group lists its rows in table order.
func splitClasses(rng *rand.Rand, classes []EquivalenceClass) [][]int {
	var groups [][]int
	for _, c := range classes {
		rows := append([]int(nil), c.Rows...)
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		for len(rows) > 0 {
			n := 1 + rng.Intn(len(rows))
			groups = append(groups, rows[:n:n])
			rows = rows[n:]
		}
	}
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	return groups
}

// TestGroupByPartitionMatchesGroupBy: classes derived from any partition
// whose groups agree on the grouping columns must equal GroupBy's exactly
// (values, member rows, order), for random tables with control bytes in
// their values, for a column subset the groups also agree on, and for the
// column set whose cardinality product needs three key runs.
func TestGroupByPartitionMatchesGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(tbl *Table, columns []string) {
		t.Helper()
		want, err := tbl.GroupBy(columns...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tbl.GroupByPartition(splitClasses(rng, want), columns...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GroupByPartition diverged from GroupBy:\ngot:  %+v\nwant: %+v", got, want)
		}
	}
	categorical := []string{"a", "b", "ab", "A", "", "z*z", "über", "[20-30)", "*", "a\x1fb", "\x01", "b\x1fc"}
	for trial := 0; trial < 200; trial++ {
		ncols := 1 + rng.Intn(4)
		attrs := make([]Attribute, ncols)
		for i := range attrs {
			typ := Categorical
			if rng.Intn(2) == 0 {
				typ = Numeric
			}
			attrs[i] = Attribute{Name: fmt.Sprintf("c%d", i), Kind: QuasiIdentifier, Type: typ}
		}
		rows := make([]Row, rng.Intn(60))
		for r := range rows {
			row := make(Row, ncols)
			for i := range row {
				if attrs[i].Type == Numeric {
					row[i] = fmt.Sprintf("%d", rng.Intn(8))
				} else {
					row[i] = categorical[rng.Intn(len(categorical))]
				}
			}
			rows[r] = row
		}
		tbl, err := FromRows(MustSchema(attrs...), rows)
		if err != nil {
			t.Fatal(err)
		}
		names := tbl.Schema().Names()
		check(tbl, names)
		check(tbl, names[:1])
	}
	tbl, names := overflowTable(t)
	check(tbl, names)
	check(tbl, names[5:])
	check(tbl, nil)
}

// TestGroupByPartitionRefusesNonPartitions: groups that overlap, miss a
// row, hold an empty group or a row out of range, or disagree on a
// grouping column's code are refused with ErrNotPartition.
func TestGroupByPartitionRefusesNonPartitions(t *testing.T) {
	tbl := testTable(t) // age/zip: 30/30301, 31/30301, 30/30301, 45/30302, 47/30302
	valid := [][]int{{2, 0}, {1}, {3}, {4}}
	if _, err := tbl.GroupByPartition(valid, "age", "zip"); err != nil {
		t.Fatalf("valid partition refused: %v", err)
	}
	cases := map[string][][]int{
		"overlap":      {{2, 0}, {1, 0}, {3}, {4}},
		"missing row":  {{2, 0}, {1}, {3}},
		"empty group":  {{2, 0}, {1}, {}, {3}, {4}},
		"out of range": {{2, 0}, {1}, {3}, {4}, {5}},
		"negative row": {{2, 0}, {1}, {3}, {4}, {-1}},
		"disagree":     {{0, 1}, {2}, {3}, {4}},
		"no groups":    nil,
	}
	for name, groups := range cases {
		if _, err := tbl.GroupByPartition(groups, "age", "zip"); !errors.Is(err, ErrNotPartition) {
			t.Errorf("%s: error = %v, want ErrNotPartition", name, err)
		}
	}
	// The groups {3, 4} agree on zip but not on age.
	zip := [][]int{{0, 1, 2}, {3, 4}}
	if _, err := tbl.GroupByPartition(zip, "zip"); err != nil {
		t.Errorf("zip partition refused: %v", err)
	}
	if _, err := tbl.GroupByPartition(zip, "zip", "age"); !errors.Is(err, ErrNotPartition) {
		t.Errorf("zip partition over age: error = %v, want ErrNotPartition", err)
	}
	if _, err := tbl.GroupByPartition(valid, "missing"); !errors.Is(err, ErrNoSuchAttribute) {
		t.Errorf("unknown column: error = %v, want ErrNoSuchAttribute", err)
	}
	empty, err := FromRows(tbl.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := empty.GroupByPartition(nil, "age"); err != nil || len(got) != 0 {
		t.Errorf("empty table: %v, %v; want no classes", got, err)
	}
}

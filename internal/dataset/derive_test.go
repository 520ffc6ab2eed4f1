package dataset

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// deriveFixture has an identifier, two numeric and two categorical columns,
// with every columnar view already built (as ingest and earlier requests
// leave a stored table).
func deriveFixture(t *testing.T) *Table {
	t.Helper()
	schema := MustSchema(
		Attribute{Name: "id", Kind: Identifier, Type: Categorical},
		Attribute{Name: "age", Kind: QuasiIdentifier, Type: Numeric},
		Attribute{Name: "zip", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "hours", Kind: Insensitive, Type: Numeric},
		Attribute{Name: "disease", Kind: Sensitive, Type: Categorical},
	)
	rows := make([]Row, 60)
	for i := range rows {
		rows[i] = Row{fmt.Sprintf("p%02d", i), fmt.Sprint(20 + i%17), fmt.Sprintf("130%02d", i%7), fmt.Sprint(i % 5 * 10), []string{"flu", "cancer", "hiv"}[i%3]}
	}
	rows[4][1] = "[20-30)"
	tbl, err := FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	buildAllViews(t, tbl)
	return tbl
}

func buildAllViews(t *testing.T, tbl *Table) {
	t.Helper()
	for col := 0; col < tbl.Schema().Len(); col++ {
		cc, err := tbl.CodedColumn(col)
		if err != nil {
			t.Fatal(err)
		}
		cc.Stats()
		if tbl.Schema().Attribute(col).Type == Numeric {
			if _, err := tbl.FloatColumn(col); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameCoded reports whether two coded views agree on everything a reader
// observes: dictionary, codes, ranks and stats.
func sameCoded(a, b *CodedColumn) bool {
	return slices.Equal(a.Dict, b.Dict) && slices.Equal(a.Codes, b.Codes) &&
		slices.Equal(a.ranks, b.ranks) &&
		reflect.DeepEqual(a.Stats(), b.Stats())
}

// checkViewsFresh requires every cached view of tbl to equal a fresh build
// over its cells.
func checkViewsFresh(t *testing.T, tbl *Table) {
	t.Helper()
	fresh, err := FromRows(tbl.Schema(), tbl.Rows())
	if err != nil {
		t.Fatal(err)
	}
	for col := 0; col < tbl.Schema().Len(); col++ {
		got, err := tbl.CodedColumn(col)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := fresh.CodedColumn(col)
		if !sameCoded(got, want) {
			t.Errorf("column %d: coded view differs from a fresh build", col)
		}
		gotF, _ := tbl.FloatColumn(col)
		wantF, _ := fresh.FloatColumn(col)
		if !reflect.DeepEqual(gotF, wantF) {
			t.Errorf("column %d: float view differs from a fresh build", col)
		}
	}
	if tbl.Fingerprint() != fresh.Fingerprint() {
		t.Error("fingerprint differs from a fresh build")
	}
}

// derivations returns Clone, Project and DropIdentifiers of src together
// with, per derived column, the source column it came from.
func derivations(t *testing.T, src *Table) map[string]struct {
	tbl  *Table
	cols []int
} {
	t.Helper()
	proj, err := src.Project("disease", "age", "zip")
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := src.DropIdentifiers()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]struct {
		tbl  *Table
		cols []int
	}{
		"clone":   {src.Clone(), []int{0, 1, 2, 3, 4}},
		"project": {proj, []int{4, 1, 2}},
		"dropids": {dropped, []int{1, 2, 3, 4}},
	}
}

// TestDerivedTablesShareColumns checks that Clone, Project and
// DropIdentifiers of heap and snapshot-backed tables share the source's
// column objects — never copies or rebuilds — and that those columns equal
// fresh builds over the derived cells.
func TestDerivedTablesShareColumns(t *testing.T) {
	heap := deriveFixture(t)
	mt, err := OpenSnapshot(writeSnapshotFile(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	for srcName, src := range map[string]*Table{"heap": heap, "snapshot": mt.Table()} {
		for name, d := range derivations(t, src) {
			t.Run(srcName+"/"+name, func(t *testing.T) {
				for j, sc := range d.cols {
					if got, _ := d.tbl.CodedColumn(j); got != src.cols[sc] {
						t.Errorf("column %d: not the source's column %d", j, sc)
					}
					want, _ := src.FloatColumn(sc)
					if got, _ := d.tbl.FloatColumn(j); got != want {
						t.Errorf("column %d: float view not shared with source column %d", j, sc)
					}
				}
				checkViewsFresh(t, d.tbl)
			})
		}
	}
}

// TestDerivedMutationIsolation checks that a write to a derived table
// replaces only its own column and fingerprint, and a write to the source
// only the source's.
func TestDerivedMutationIsolation(t *testing.T) {
	for name := range derivations(t, deriveFixture(t)) {
		t.Run(name, func(t *testing.T) {
			src := deriveFixture(t)
			srcFP := src.Fingerprint()
			d := derivations(t, src)[name]
			age := slices.Index(d.cols, 1)
			srcAge := src.cols[1]

			// Derived write: the source keeps its views and fingerprint.
			if err := d.tbl.SetValue(0, age, "99"); err != nil {
				t.Fatal(err)
			}
			if src.cols[1] != srcAge || src.Fingerprint() != srcFP {
				t.Fatal("write to the derived table touched the source's views")
			}
			if v, _ := src.Value(0, 1); v != "20" {
				t.Fatalf("write to the derived table reached the source's cells: %q", v)
			}
			checkViewsFresh(t, d.tbl)
			checkViewsFresh(t, src)

			// Source write: the derived table keeps what it holds.
			derivedFP := d.tbl.Fingerprint()
			derivedZip := d.tbl.cols[slices.Index(d.cols, 2)]
			if err := src.SetValue(1, 2, "99999"); err != nil {
				t.Fatal(err)
			}
			if d.tbl.Fingerprint() != derivedFP || d.tbl.cols[slices.Index(d.cols, 2)] != derivedZip {
				t.Fatal("write to the source touched the derived table's views")
			}
			checkViewsFresh(t, d.tbl)
			checkViewsFresh(t, src)
		})
	}
}

// TestConcurrentProjectAndColumns derives projections of one stored table
// while other goroutines read it and build its columns' lazy views; run
// under -race.
func TestConcurrentProjectAndColumns(t *testing.T) {
	fixture := deriveFixture(t)
	src, err := FromRows(fixture.Schema(), fixture.Rows()) // no lazy view built yet
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				col := (g + i) % src.Schema().Len()
				if _, err := src.CodedColumn(col); err != nil {
					t.Error(err)
					return
				}
				if _, err := src.FloatColumn(col); err != nil {
					t.Error(err)
					return
				}
				p, err := src.DropIdentifiers()
				if err != nil {
					t.Error(err)
					return
				}
				cc, err := p.CodedColumnByName("zip")
				if err != nil {
					t.Error(err)
					return
				}
				cc.Stats()
				if g == 0 && i%10 == 0 {
					_ = p.SetValue(0, 0, "77")
					_ = p.Clone().Fingerprint()
				}
			}
		}(g)
	}
	wg.Wait()
	checkViewsFresh(t, src)
}

// TestSetCodedColumn checks the bulk writer: cells are written, the
// installed column equals a fresh build over them, the float view and
// fingerprint are refreshed, and malformed input leaves the table unchanged.
func TestSetCodedColumn(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		tbl := deriveFixture(t)
		if snapshot {
			mt, err := OpenSnapshot(writeSnapshotFile(t, tbl))
			if err != nil {
				t.Fatal(err)
			}
			defer mt.Close()
			tbl = mt.Table()
		}
		before := tbl.Fingerprint()
		codes := make([]uint32, tbl.Len())
		for i := range codes {
			codes[i] = uint32(min(i%4, i))
		}
		for _, bad := range []struct {
			dict  []string
			codes []uint32
		}{
			{[]string{"a", "b", "c", "d"}, codes[:len(codes)-1]},
			{[]string{"a", "b", "c"}, codes},
			{[]string{"a", "b", "c", "d", "e"}, codes},
			{[]string{"a", "b", "a", "d"}, codes},
			{[]string{"a", "b", "c", "d"}, append([]uint32{1}, codes[1:]...)},
		} {
			if err := tbl.SetCodedColumn(1, bad.dict, bad.codes); err == nil {
				t.Errorf("snapshot=%v: malformed coded column accepted", snapshot)
			}
		}
		if err := tbl.SetCodedColumn(9, nil, nil); err == nil {
			t.Error("out-of-range column accepted")
		}
		if tbl.Fingerprint() != before {
			t.Fatal("rejected writes changed the table")
		}
		dict := []string{"30", "31", "[30-40)", " 32"}
		if err := tbl.SetCodedColumn(1, dict, codes); err != nil {
			t.Fatal(err)
		}
		if v, _ := tbl.Value(6, 1); v != "[30-40)" {
			t.Errorf("cell = %q", v)
		}
		if code, ok := tbl.cols[1].Code(" 32"); !ok || code != 3 {
			t.Errorf("Code(\" 32\") = %d, %v", code, ok)
		}
		if tbl.Fingerprint() == before {
			t.Error("fingerprint not refreshed")
		}
		checkViewsFresh(t, tbl)

		// SetColumn installs that very column in another table, sharing it,
		// and refuses a column of another length or position.
		other := deriveFixture(t)
		if err := other.SetColumn(1, tbl.cols[1]); err != nil {
			t.Fatal(err)
		}
		if other.cols[1] != tbl.cols[1] {
			t.Error("SetColumn copied the column instead of sharing it")
		}
		short, _ := NewCodedColumn([]string{"a"}, []uint32{0})
		if other.SetColumn(1, short) == nil || other.SetColumn(9, tbl.cols[1]) == nil {
			t.Error("SetColumn accepted a wrong-length column or an out-of-range index")
		}
		checkViewsFresh(t, other)
	}
}

// TestDerivedTablesShareLazyViews checks that lazily built views live on the
// shared column: a view built through a projection is the one the source
// and its other derivations see, and a write replaces only the writer's
// column.
func TestDerivedTablesShareLazyViews(t *testing.T) {
	src, err := FromRows(deriveFixture(t).Schema(), deriveFixture(t).Rows())
	if err != nil {
		t.Fatal(err)
	}
	zip, err := src.CodedColumnByName("zip")
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := src.DropIdentifiers()
	written, _ := src.DropIdentifiers()
	for name, d := range map[string]*Table{"projection": p1, "clone of projection": p1.Clone()} {
		if got, _ := d.CodedColumnByName("zip"); got != zip {
			t.Errorf("%s does not share the zip column", name)
		}
	}

	// A view built on the projection serves the source too.
	hours, err := p1.FloatColumnByName("hours")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := src.FloatColumnByName("hours"); got != hours {
		t.Error("float view built on a projection not shared with the source")
	}
	stats := p1.Clone().cols[3].Stats()
	if got, _ := src.CodedColumnByName("disease"); got.Stats() != stats {
		t.Error("stats built on a clone of a projection not shared with the source")
	}

	// A derived table's write replaces its own column only.
	if err := written.SetValue(0, 1, "00000"); err != nil {
		t.Fatal(err)
	}
	if got, _ := written.CodedColumnByName("zip"); got == zip {
		t.Error("written column still is the source's column")
	}
	if src.cols[2] != zip || p1.cols[1] != zip {
		t.Error("derived write replaced another table's column")
	}
	checkViewsFresh(t, written)
	checkViewsFresh(t, p1)
	checkViewsFresh(t, src)
}

// TestWritersMatchFreshBuild checks that every writer and row-set
// derivation leaves columns (Dict, Codes, ranks, clean, stats, float view)
// and fingerprint equal to a fresh FromRows of the same cells, for heap and
// snapshot-backed tables alike.
func TestWritersMatchFreshBuild(t *testing.T) {
	heap := deriveFixture(t)
	mt, err := OpenSnapshot(writeSnapshotFile(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	// extra mixes values the fixture holds with new ones that sort before,
	// between and after them, including control bytes and repeats.
	extra, err := FromRows(heap.Schema(), []Row{
		{"p03", "21", "13001", "0", "flu"},
		{"a\x01", "!", "13099", "5", "zzz"},
		{"p99", "21", "00000", "0", "cancer"},
		{"p99", "99", "13001", "5", "asthma"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for srcName, src := range map[string]*Table{"heap": heap, "snapshot": mt.Table()} {
		writes := map[string]func() (*Table, error){
			"append": func() (*Table, error) {
				out := src.Clone()
				return out, out.AppendTable(extra)
			},
			"append onto extra": func() (*Table, error) {
				out := extra.Clone()
				return out, out.AppendTable(src)
			},
			"append onto empty": func() (*Table, error) {
				out := NewTable(src.Schema())
				return out, out.AppendTable(src)
			},
			"append to self": func() (*Table, error) {
				out := src.Clone()
				return out, out.AppendTable(out)
			},
			"append twice": func() (*Table, error) {
				out := src.Clone()
				if err := out.AppendTable(extra); err != nil {
					return nil, err
				}
				return out, out.AppendTable(extra)
			},
			"set value": func() (*Table, error) {
				out := src.Clone()
				return out, out.SetValue(3, 2, "\x02zip")
			},
			"set coded column": func() (*Table, error) {
				out := src.Clone()
				codes := make([]uint32, out.Len())
				for i := range codes {
					codes[i] = uint32(min(i%3, i))
				}
				return out, out.SetCodedColumn(4, []string{"b", "a", "c"}, codes)
			},
			"select":      func() (*Table, error) { return src.Select([]int{9, 3, 9, 0, 41, 4}) },
			"select none": func() (*Table, error) { return src.Select(nil) },
			"with schema": func() (*Table, error) {
				s2, err := src.Schema().WithKinds(map[string]Kind{"zip": Sensitive})
				if err != nil {
					return nil, err
				}
				return src.WithSchema(s2)
			},
		}
		for name, write := range writes {
			t.Run(srcName+"/"+name, func(t *testing.T) {
				out, err := write()
				if err != nil {
					t.Fatal(err)
				}
				checkViewsFresh(t, out)
				if got, want := out.rowsHash().sum(), referenceRowsHash(out.Rows()); got != want {
					t.Errorf("row-content hash %s, reference %s", got, want)
				}
			})
		}
	}
}

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
// observes: dictionary, codes, ranks, the control-byte flag and stats.
func sameCoded(a, b *CodedColumn) bool {
	return slices.Equal(a.Dict, b.Dict) && slices.Equal(a.Codes, b.Codes) &&
		slices.Equal(a.ranks, b.ranks) && a.clean == b.clean &&
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

// TestDerivedTablesInheritViews checks that Clone, Project and
// DropIdentifiers of heap and snapshot-backed tables start with the source's
// views — the same immutable objects, not rebuilds — and that those views
// equal fresh builds over the derived cells.
func TestDerivedTablesInheritViews(t *testing.T) {
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
					want := src.cache.codes[sc]
					if got, _ := d.tbl.CodedColumn(j); want == nil || got != want {
						t.Errorf("column %d: coded view not inherited from source column %d", j, sc)
					}
					if want := src.cache.floats[sc]; want != nil {
						if got, _ := d.tbl.FloatColumn(j); got != want {
							t.Errorf("column %d: float view not inherited from source column %d", j, sc)
						}
					}
				}
				checkViewsFresh(t, d.tbl)
			})
		}
	}
}

// TestDerivedMutationIsolation checks that a write to a derived table drops
// only its own views and fingerprint, and a write to the source only the
// source's.
func TestDerivedMutationIsolation(t *testing.T) {
	for name := range derivations(t, deriveFixture(t)) {
		t.Run(name, func(t *testing.T) {
			src := deriveFixture(t)
			srcFP := src.Fingerprint()
			d := derivations(t, src)[name]
			age := slices.Index(d.cols, 1)
			srcAge := src.cache.codes[1]

			// Derived write: the source keeps its views and fingerprint.
			if err := d.tbl.SetValue(0, age, "99"); err != nil {
				t.Fatal(err)
			}
			if src.cache.codes[1] != srcAge || src.Fingerprint() != srcFP {
				t.Fatal("write to the derived table touched the source's views")
			}
			if v, _ := src.Value(0, 1); v != "20" {
				t.Fatalf("write to the derived table reached the source's cells: %q", v)
			}
			checkViewsFresh(t, d.tbl)
			checkViewsFresh(t, src)

			// Source write: the derived table keeps what it holds.
			derivedFP := d.tbl.Fingerprint()
			derivedZip := d.tbl.cache.codes[slices.Index(d.cols, 2)]
			if err := src.SetValue(1, 2, "99999"); err != nil {
				t.Fatal(err)
			}
			if d.tbl.Fingerprint() != derivedFP || d.tbl.cache.codes[slices.Index(d.cols, 2)] != derivedZip {
				t.Fatal("write to the source touched the derived table's views")
			}
			checkViewsFresh(t, d.tbl)
			checkViewsFresh(t, src)
		})
	}
}

// TestConcurrentProjectAndColumns derives projections of one stored table
// while other goroutines read and build its views; run under -race.
func TestConcurrentProjectAndColumns(t *testing.T) {
	src := deriveFixture(t)
	src.cache.invalidateAll() // views get built while projections copy the cache
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
// installed view equals a lazy build over them, the float view and
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
		if code, ok := tbl.cache.codes[1].Code(" 32"); !ok || code != 3 {
			t.Errorf("Code(\" 32\") = %d, %v", code, ok)
		}
		if tbl.Fingerprint() == before {
			t.Error("fingerprint not refreshed")
		}
		checkViewsFresh(t, tbl)
	}
}

// TestDerivedViewsCopiedAtDerivation checks that a derived table starts with
// exactly the views its source held when it was derived: later builds on
// either side stay on that side, and a write drops only the writer's view.
func TestDerivedViewsCopiedAtDerivation(t *testing.T) {
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
			t.Errorf("%s rebuilt the zip view", name)
		}
	}

	// Views built after the derivation are not shared.
	disease, err := p1.CodedColumnByName("disease")
	if err != nil {
		t.Fatal(err)
	}
	if src.cache.codes[4] != nil {
		t.Error("view built on a projection was stored on the source")
	}
	hours, err := src.FloatColumnByName("hours")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p1.FloatColumnByName("hours"); got == hours {
		t.Error("view built on the source after the derivation reached the projection")
	}
	if got, _ := p1.Clone().CodedColumnByName("disease"); got != disease {
		t.Error("clone did not copy the projection's own view")
	}

	// A derived table's write drops its own view of that column only.
	if err := written.SetValue(0, 1, "00000"); err != nil {
		t.Fatal(err)
	}
	if got, _ := written.CodedColumnByName("zip"); got == zip {
		t.Error("written column still holds the source's view")
	}
	if src.cache.codes[2] != zip {
		t.Error("derived write replaced the source's view")
	}
	checkViewsFresh(t, written)
	checkViewsFresh(t, p1)
	checkViewsFresh(t, src)
}

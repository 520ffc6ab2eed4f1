package generalize_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/ppdp/ppdp/internal/algorithms/kmember"
	"github.com/ppdp/ppdp/internal/algorithms/mondrian"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/privacy"
	"github.com/ppdp/ppdp/internal/synth"
)

// checkAgainstOracle recodes groups with the coded RecodeGroups and with the
// string oracle and requires identical errors and released cells.
// It returns the coded release (nil on error).
func checkAgainstOracle(t *testing.T, tbl *dataset.Table, attrs []string, hs *hierarchy.Set, groups [][]int) *dataset.Table {
	t.Helper()
	got, gotErr := generalize.RecodeGroups(tbl, attrs, hs, groups)
	want, wantErr := generalize.RecodeGroupsOracle(tbl, attrs, hs, groups)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error %v, oracle %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if !reflect.DeepEqual(got.Rows(), want.Rows()) {
		t.Fatal("released table differs from the oracle")
	}
	checkInstalledViews(t, got, attrs)
	return got
}

// checkInstalledViews requires every coded view RecodeGroups installed to
// equal a from-scratch build over the same cells: dictionary, codes, the
// reverse index, lexicographic ranks, the control-byte flag and the value
// distribution.
func checkInstalledViews(t *testing.T, out *dataset.Table, attrs []string) {
	t.Helper()
	fresh, err := dataset.FromRows(out.Schema(), out.Rows())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range attrs {
		installed, err := out.CodedColumnByName(a)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := fresh.CodedColumnByName(a)
		if err != nil {
			t.Fatal(err)
		}
		// Neither column has built its value distribution yet, so DeepEqual
		// compares the encoding alone; the distributions follow through
		// sameStats, since DeepEqual never equates two NaN readings.
		if !reflect.DeepEqual(installed, rebuilt) {
			t.Fatalf("installed coded view of %q differs from a rebuild", a)
		}
		if !sameStats(installed.Stats(), rebuilt.Stats()) {
			t.Fatalf("value distribution of %q differs from a rebuild", a)
		}
	}
}

// sameStats reports whether two value distributions are equal, comparing
// the numeric readings bit for bit so that NaN equals NaN.
func sameStats(a, b *dataset.ColumnStats) bool {
	x, y := *a, *b
	x.Num, y.Num = nil, nil
	return reflect.DeepEqual(x, y) && slices.EqualFunc(a.Num, b.Num, func(p, q float64) bool {
		return math.Float64bits(p) == math.Float64bits(q)
	})
}

// spellingsTable writes one numeric quasi-identifier in several spellings of
// the same numbers, including exponent forms that make intervals non-integral,
// and a few "NaN" cells.
func spellingsTable(n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "score", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "band", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "outcome", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	spellings := func(v int) []string {
		return []string{fmt.Sprint(v), fmt.Sprintf("%d.0", v), fmt.Sprintf(" %d", v), fmt.Sprintf("%de0", v), fmt.Sprintf("%d.5", v)}
	}
	rows := make([]dataset.Row, n)
	for i := range rows {
		s := spellings(rng.Intn(30))
		score := s[rng.Intn(len(s))]
		switch rng.Intn(40) {
		case 0:
			score = "1e3"
		case 1:
			score = "2500000"
		case 2:
			score = "NaN"
		}
		rows[i] = dataset.Row{score, fmt.Sprintf("b%d", rng.Intn(6)), fmt.Sprintf("o%d", rng.Intn(3))}
	}
	tbl, err := dataset.FromRows(schema, rows)
	if err != nil {
		panic(err)
	}
	return tbl
}

// unknownsTable is a census sample in which some education and age cells
// hold values the census hierarchies cannot generalize, so the lowest common
// generalization errors for them and recoding falls back to value sets.
func unknownsTable(n int, seed int64) *dataset.Table {
	base := synth.Census(n, seed)
	rows := base.Rows()
	edu := base.Schema().MustIndex("education")
	age := base.Schema().MustIndex("age")
	for i := range rows {
		switch i % 11 {
		case 3:
			rows[i][edu] = "unknown-edu"
		case 7:
			rows[i][age] = "unknown"
		}
	}
	tbl, err := dataset.FromRows(base.Schema(), rows)
	if err != nil {
		panic(err)
	}
	return tbl
}

// levelGappedHierarchy wraps a hierarchy and fails to generalize one value
// at level 1 only, so whether recoding falls back to a value set depends on
// the order in which the lowest common generalization visits values.
type levelGappedHierarchy struct {
	hierarchy.Hierarchy
	gap string
}

func (h levelGappedHierarchy) Generalize(v string, level int) (string, error) {
	if v == h.gap && level == 1 {
		return "", fmt.Errorf("no level-1 generalization for %q", v)
	}
	return h.Hierarchy.Generalize(v, level)
}

// gappedHierarchies is the census hierarchy set with a level gap in
// education.
func gappedHierarchies(t *testing.T) *hierarchy.Set {
	t.Helper()
	hs := synth.CensusHierarchies()
	edu, err := hs.Get("education")
	if err != nil {
		t.Fatal(err)
	}
	return hs.Add(levelGappedHierarchy{Hierarchy: edu, gap: "masters"})
}

type recodeCase struct {
	name      string
	tbl       *dataset.Table
	hs        *hierarchy.Set
	sensitive string
}

func recodeCases() []recodeCase {
	return []recodeCase{
		{"census", synth.Census(1200, 51), synth.CensusHierarchies(), "salary"},
		{"hospital", synth.Hospital(1000, 52), synth.HospitalHierarchies(), "diagnosis"},
		{"spellings", spellingsTable(500, 53), nil, "outcome"},
		{"unknowns", unknownsTable(900, 54), synth.CensusHierarchies(), "salary"},
	}
}

// TestRecodeGroupsLevelGap checks the memoized lowest common generalization
// against the oracle under a hierarchy that errors for one value at one
// level: the group falls back to a value set only when the erroring value is
// reached before a level-1 mismatch ends the scan.
func TestRecodeGroupsLevelGap(t *testing.T) {
	tbl := synth.Census(2000, 81)
	hs := gappedHierarchies(t)
	edu := tbl.Schema().MustIndex("education")
	byValue := map[string][]int{}
	for r := 0; r < tbl.Len(); r++ {
		v, _ := tbl.Value(r, edu)
		byValue[v] = append(byValue[v], r)
	}
	masters := byValue["masters"]
	if len(masters) < 4 {
		t.Fatal("fixture lacks masters rows")
	}
	var groups [][]int
	used := map[int]bool{}
	take := func(v string) int {
		for _, r := range byValue[v] {
			if !used[r] {
				used[r] = true
				return r
			}
		}
		t.Fatalf("fixture lacks %s rows", v)
		return -1
	}
	for _, members := range [][]string{
		{"masters", "doctorate"},
		{"bachelors", "masters"},
		{"bachelors", "hs-grad", "masters"},
		{"masters", "masters"},
		{"hs-grad", "masters", "bachelors"},
	} {
		var g []int
		for _, v := range members {
			g = append(g, take(v))
		}
		groups = append(groups, g)
	}
	checkAgainstOracle(t, tbl, []string{"education"}, hs, groups)
	for _, tc := range recodeCases()[:1] {
		res, err := mondrian.Anonymize(tc.tbl, mondrian.Config{K: 5, Hierarchies: hs})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, tc.tbl, tc.tbl.Schema().QuasiIdentifierNames(), hs, res.Groups)
	}
}

// TestRecodeGroupsMatchesOracleOnMondrian recodes Mondrian partitions —
// strict and relaxed, k ∈ {2,5,10,50}, with and without an extra criterion —
// and requires the release Mondrian returns, and a recoding of the same
// groups with and without hierarchies, to match the oracle byte for byte.
func TestRecodeGroupsMatchesOracleOnMondrian(t *testing.T) {
	for _, tc := range recodeCases() {
		qi := tc.tbl.Schema().QuasiIdentifierNames()
		for _, strict := range []bool{false, true} {
			for _, k := range []int{2, 5, 10, 50} {
				for _, extra := range [][]privacy.Criterion{nil, {privacy.DistinctLDiversity{L: 2, Sensitive: tc.sensitive}}} {
					name := fmt.Sprintf("%s/strict=%v/k=%d/extra=%d", tc.name, strict, k, len(extra))
					t.Run(name, func(t *testing.T) {
						res, err := mondrian.Anonymize(tc.tbl, mondrian.Config{K: k, Strict: strict, Extra: extra, Hierarchies: tc.hs})
						if err != nil {
							t.Fatal(err)
						}
						want, err := generalize.RecodeGroupsOracle(tc.tbl, qi, tc.hs, res.Groups)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(res.Table.Rows(), want.Rows()) {
							t.Fatal("Mondrian release differs from the oracle recoding of its groups")
						}
						checkInstalledViews(t, res.Table, qi)
						checkAgainstOracle(t, tc.tbl, qi, nil, res.Groups)
						// Groups that do not cover every row: the rest keep
						// their values.
						var partial [][]int
						for gi, g := range res.Groups {
							if gi%3 != 1 {
								partial = append(partial, g)
							}
						}
						checkAgainstOracle(t, tc.tbl, qi, tc.hs, partial)
					})
				}
			}
		}
	}
}

// TestRecodeGroupsMatchesOracleOnKMember does the same for k-member
// clustering, whose clusters are not contiguous ranges of any dimension.
func TestRecodeGroupsMatchesOracleOnKMember(t *testing.T) {
	for _, tc := range []recodeCase{
		{"census", synth.Census(240, 61), synth.CensusHierarchies(), ""},
		{"hospital", synth.Hospital(240, 62), synth.HospitalHierarchies(), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qi := tc.tbl.Schema().QuasiIdentifierNames()
			res, err := kmember.Anonymize(tc.tbl, kmember.Config{K: 5, Hierarchies: tc.hs})
			if err != nil {
				t.Fatal(err)
			}
			want, err := generalize.RecodeGroupsOracle(tc.tbl, qi, tc.hs, res.Groups)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Table.Rows(), want.Rows()) {
				t.Fatal("k-member release differs from the oracle recoding of its groups")
			}
			checkInstalledViews(t, res.Table, qi)
			checkAgainstOracle(t, tc.tbl, qi, nil, res.Groups)
		})
	}
}

// TestRecodeGroupsMatchesOracleOnRandomGroups recodes random disjoint groups
// of random rows (in random member order, leaving some rows uncovered) and
// malformed group lists, whose errors must match the oracle's too.
func TestRecodeGroupsMatchesOracleOnRandomGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range recodeCases() {
		qi := tc.tbl.Schema().QuasiIdentifierNames()
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				perm := rng.Perm(tc.tbl.Len())
				perm = perm[:len(perm)*(5+rng.Intn(5))/10]
				var groups [][]int
				for len(perm) > 0 {
					size := min(len(perm), 1+rng.Intn(12))
					groups = append(groups, perm[:size:size])
					perm = perm[size:]
				}
				attrs := qi[:1+rng.Intn(len(qi))]
				checkAgainstOracle(t, tc.tbl, attrs, tc.hs, groups)
				checkAgainstOracle(t, tc.tbl, attrs, nil, groups)
			}
			n := tc.tbl.Len()
			for _, bad := range [][][]int{
				{{0, 1}, {}},
				{{0, 1}, {2, n}},
				{{0, 1}, {-1}},
				{{0, 1}, {2, 1}},
				{{3, 3}},
				{{0}, {1, 0, n}},
			} {
				checkAgainstOracle(t, tc.tbl, qi, tc.hs, bad)
			}
		})
	}
}

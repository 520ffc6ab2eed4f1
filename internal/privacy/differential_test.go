package privacy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
)

// This file checks the coded sensitive-attribute kernel against a reference
// that evaluates every criterion the historical way: per-class string maps
// built from cell values, a global string map, and a domain sorted by value.
// Float results must agree bit for bit.

// refDist counts the sensitive values of one class through string cells.
func refDist(t *testing.T, tbl *dataset.Table, c dataset.EquivalenceClass, col int) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, r := range c.Rows {
		v, err := tbl.Value(r, col)
		if err != nil {
			t.Fatal(err)
		}
		out[v]++
	}
	return out
}

// refDomain orders the table's sensitive values: numerically (ties by value
// bytes) when ordered and every value parses, lexicographically otherwise.
func refDomain(global map[string]int, ordered bool) []string {
	dom := make([]string, 0, len(global))
	for v := range global {
		dom = append(dom, v)
	}
	sort.Strings(dom)
	if !ordered {
		return dom
	}
	num := make(map[string]float64, len(dom))
	for _, v := range dom {
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return dom
		}
		num[v] = f
	}
	sort.SliceStable(dom, func(i, j int) bool { return num[dom[i]] < num[dom[j]] })
	return dom
}

// refMeasures holds every measure computed by the reference.
type refMeasures struct {
	maxAlpha, entropyL, recursiveC, emd, orderedEMD float64
	distinctL                                       int
	recursiveOK                                     bool // recursive (refC, refL)-diversity
}

const (
	refL = 2
	refC = 3.0
)

// refEqualEMD is the earth mover's distance under the equal ground
// distance, which reduces to the total variation distance.
func refEqualEMD(p, q []float64) float64 {
	sum := 0.0
	for i := range p {
		sum += math.Abs(p[i] - q[i])
	}
	return sum / 2
}

// refOrderedEMD is the earth mover's distance for an ordered domain: the
// mean of absolute prefix sums of (p - q), normalized by (m - 1).
func refOrderedEMD(p, q []float64) float64 {
	m := len(p)
	if m <= 1 {
		return 0
	}
	sum, prefix := 0.0, 0.0
	for i := 0; i < m; i++ {
		prefix += p[i] - q[i]
		sum += math.Abs(prefix)
	}
	return sum / float64(m-1)
}

func reference(t *testing.T, tbl *dataset.Table, classes []dataset.EquivalenceClass, sensitive string) refMeasures {
	t.Helper()
	col, err := tbl.Schema().Index(sensitive)
	if err != nil {
		t.Fatal(err)
	}
	global := refDist(t, tbl, dataset.EquivalenceClass{Rows: allRows(tbl.Len())}, col)
	emd := func(local map[string]int, size int, ordered bool) float64 {
		dom := refDomain(global, ordered)
		p, q := make([]float64, len(dom)), make([]float64, len(dom))
		for i, v := range dom {
			if size > 0 {
				p[i] = float64(local[v]) / float64(size)
			}
			q[i] = float64(global[v]) / float64(tbl.Len())
		}
		if ordered {
			return refOrderedEMD(p, q)
		}
		return refEqualEMD(p, q)
	}
	m := refMeasures{distinctL: math.MaxInt, entropyL: math.Inf(1), recursiveOK: true}
	recursiveDone := false
	for _, c := range classes {
		dist := refDist(t, tbl, c, col)
		vals := make([]string, 0, len(dist))
		for v := range dist {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		h := 0.0
		counts := make([]int, 0, len(dist))
		for _, v := range vals {
			p := float64(dist[v]) / float64(c.Size())
			m.maxAlpha = math.Max(m.maxAlpha, p)
			h -= p * math.Log(p)
			counts = append(counts, dist[v])
		}
		m.entropyL = math.Min(m.entropyL, h)
		if len(dist) < m.distinctL {
			m.distinctL = len(dist)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		if len(counts) < refL {
			m.recursiveOK = false
			if !recursiveDone {
				m.recursiveC, recursiveDone = math.Inf(1), true
			}
		} else {
			tail := 0
			for _, n := range counts[refL-1:] {
				tail += n
			}
			if float64(counts[0]) >= refC*float64(tail) {
				m.recursiveOK = false
			}
			if r := float64(counts[0]) / float64(tail); !recursiveDone && r > m.recursiveC {
				m.recursiveC = r
			}
		}
		m.emd = math.Max(m.emd, emd(dist, c.Size(), false))
		m.orderedEMD = math.Max(m.orderedEMD, emd(dist, c.Size(), true))
	}
	return m
}

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// diffTable builds a random table with a categorical and a numeric
// sensitive column. The numeric values are chosen so lexicographic and
// numeric order disagree. A third, constant column has a one-value domain;
// it draws no random numbers, so the other columns do not depend on it.
func diffTable(t *testing.T, seed int64, n int) *dataset.Table {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "zip", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "disease", Kind: dataset.Sensitive, Type: dataset.Categorical},
		dataset.Attribute{Name: "salary", Kind: dataset.Insensitive, Type: dataset.Numeric},
		dataset.Attribute{Name: "grade", Kind: dataset.Insensitive, Type: dataset.Numeric},
	)
	rng := rand.New(rand.NewSource(seed))
	diseases := []string{"flu", "cancer", "hiv", "gastritis", "ulcer", "asthma"}
	salaries := []string{"3", "10", "2.5", "100", "-7", "45"}
	rows := make([]dataset.Row, n)
	for i := range rows {
		// Zip classes skew towards a few diseases so most classes miss
		// some values of the domain.
		z := rng.Intn(8)
		rows[i] = dataset.Row{
			fmt.Sprintf("z%d", z),
			diseases[(z+rng.Intn(3))%len(diseases)],
			salaries[rng.Intn(len(salaries))],
			"7",
		}
	}
	tbl, err := dataset.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// diffClasses returns the zip classes, random row subsets, a single-row
// class, a single-value class and an empty class.
func diffClasses(t *testing.T, tbl *dataset.Table, seed int64) [][]dataset.EquivalenceClass {
	t.Helper()
	zip, err := tbl.GroupBy("zip")
	if err != nil {
		t.Fatal(err)
	}
	byDisease, err := tbl.GroupBy("disease")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var subsets []dataset.EquivalenceClass
	for i := 0; i < 5; i++ {
		var rows []int
		for r := 0; r < tbl.Len(); r++ {
			if rng.Intn(4) == 0 {
				rows = append(rows, r)
			}
		}
		subsets = append(subsets, dataset.EquivalenceClass{Rows: rows})
	}
	return [][]dataset.EquivalenceClass{
		zip,
		subsets,
		{{Rows: []int{0}}},
		byDisease[:1], // one sensitive value only
		{zip[0], {Rows: nil}},
		nil,
	}
}

func TestCodedMeasuresMatchStringReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		heap := diffTable(t, seed, 200)
		path := filepath.Join(t.TempDir(), "t.snap")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := heap.WriteSnapshot(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		mt, err := dataset.OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			tbl  *dataset.Table
		}{{"heap", heap}, {"snapshot", mt.Table()}} {
			for ci, classes := range diffClasses(t, tc.tbl, seed) {
				for _, sensitive := range []string{"disease", "salary", "grade"} {
					name := fmt.Sprintf("seed%d/%s/classes%d/%s", seed, tc.name, ci, sensitive)
					checkAgainstReference(t, name, tc.tbl, classes, sensitive)
				}
			}
		}
		if err := mt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func checkAgainstReference(t *testing.T, name string, tbl *dataset.Table, classes []dataset.EquivalenceClass, sensitive string) {
	t.Helper()
	// Coded verdicts first, so snapshot tables are evaluated before the
	// reference materializes their rows.
	criteria := []Criterion{
		AlphaKAnonymity{K: 1, Alpha: 0.5, Sensitive: sensitive},
		DistinctLDiversity{L: 2, Sensitive: sensitive},
		EntropyLDiversity{L: 1.5, Sensitive: sensitive},
		RecursiveCLDiversity{C: refC, L: refL, Sensitive: sensitive},
		TCloseness{T: 0.2, Sensitive: sensitive},
		TCloseness{T: 0.2, Sensitive: sensitive, Ordered: true},
	}
	verdicts := make([]Verdict, len(criteria))
	for i, c := range criteria {
		v, err := c.Evaluate(tbl, classes)
		if err != nil {
			t.Fatalf("%s: %s: %v", name, c.Name(), err)
		}
		verdicts[i] = v
	}
	l, err := MeasureDistinctL(tbl, classes, sensitive)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := reference(t, tbl, classes, sensitive)
	if len(classes) == 0 {
		want.distinctL, want.entropyL = 0, 0
	}
	minSize := dataset.MinClassSize(classes)
	refs := []struct {
		measured float64
		ok       bool
	}{
		{want.maxAlpha, minSize >= 1 && want.maxAlpha <= 0.5},
		{float64(want.distinctL), want.distinctL >= 2},
		{math.Exp(want.entropyL), want.entropyL >= math.Log(1.5)-1e-12},
		{want.recursiveC, want.recursiveOK},
		{want.emd, want.emd <= 0.2+1e-12},
		{want.orderedEMD, want.orderedEMD <= 0.2+1e-12},
	}
	for i, ref := range refs {
		c, v := criteria[i], verdicts[i]
		if math.Float64bits(v.Measured) != math.Float64bits(ref.measured) {
			t.Errorf("%s: %s measured %v, reference %v", name, c.Name(), v.Measured, ref.measured)
		}
		if v.Satisfied != ref.ok {
			t.Errorf("%s: %s satisfied %v, reference %v", name, c.Name(), v.Satisfied, ref.ok)
		}
	}
	if l != want.distinctL {
		t.Errorf("%s: MeasureDistinctL = %d, reference %d", name, l, want.distinctL)
	}
	if _, _, err := CheckAll(tbl, classes, criteria...); (len(classes) == 0) != errors.Is(err, ErrNoClasses) {
		t.Errorf("%s: CheckAll error %v on %d classes", name, err, len(classes))
	}
}

// TestEntropyDeterministic pins entropy to one bit pattern across calls for
// a class with several sensitive values, whose terms a map-ordered sum
// would add in a varying order.
func TestEntropyDeterministic(t *testing.T) {
	tbl := diffTable(t, 7, 300)
	classes := []dataset.EquivalenceClass{{Rows: allRows(tbl.Len())}}
	crit := EntropyLDiversity{L: 2, Sensitive: "disease"}
	first, err := crit.Evaluate(tbl, classes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v, err := crit.Evaluate(tbl, classes)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(v.Measured) != math.Float64bits(first.Measured) {
			t.Fatalf("call %d: effective l %v, first call %v", i, v.Measured, first.Measured)
		}
	}
}

// TestSensitiveRowIndexError keeps the out-of-range row error of the
// string path: a class naming a row the table lacks is an error, not a
// panic.
func TestSensitiveRowIndexError(t *testing.T) {
	tbl := diffTable(t, 1, 10)
	classes := []dataset.EquivalenceClass{{Rows: []int{0, 10}}}
	if _, err := MeasureDistinctL(tbl, classes, "disease"); err == nil {
		t.Fatal("row 10 of a 10-row table accepted")
	}
	if _, err := MeasureMaxEMD(tbl, classes, "missing", false); err == nil {
		t.Fatal("unknown sensitive attribute accepted")
	}
}

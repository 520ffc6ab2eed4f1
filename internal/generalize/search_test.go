package generalize

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
	"github.com/ppdp/ppdp/internal/privacy"
)

// TestSuppressionBudget pins the budget to the largest b with b/n <= f,
// including fractions whose product with n truncates one short.
func TestSuppressionBudget(t *testing.T) {
	cases := []struct {
		n    int
		f    float64
		want int
	}{
		{100, 0.29, 29}, {100, 0.57, 57}, {100, 0.58, 58},
		{400, 0.02, 8}, {500, 0.02, 10}, {5000, 0.02, 100},
		{100, 0, 0}, {100, 1, 100}, {0, 0.5, 0}, {7, 0.5, 3},
	}
	for _, c := range cases {
		if got := SuppressionBudget(c.n, c.f); got != c.want {
			t.Errorf("SuppressionBudget(%d, %v) = %d, want %d", c.n, c.f, got, c.want)
		}
	}
	for n := 1; n <= 300; n++ {
		for p := 0; p <= 100; p++ {
			f := float64(p) / 100
			b := SuppressionBudget(n, f)
			if float64(b)/float64(n) > f || (b < n && float64(b+1)/float64(n) <= f) {
				t.Fatalf("SuppressionBudget(%d, %v) = %d is not the largest b with b/n <= f", n, f, b)
			}
		}
	}
}

// TestSearchMatchesFullDomain: a node tested and released by the search
// core is FullDomain's recoding, and every (attribute, level) column is
// recoded once and shared.
func TestSearchMatchesFullDomain(t *testing.T) {
	tbl, hs := testTable(t)
	attrs := []string{"age", "sex"}
	s, err := NewSearch(context.Background(), tbl, attrs, hs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.K = 2
	for h := 0; h <= s.Lattice.MaxHeight(); h++ {
		for _, node := range s.Lattice.NodesAtHeight(h) {
			want, err := FullDomain(tbl, attrs, hs, node)
			if err != nil {
				t.Fatal(err)
			}
			classes, err := want.GroupBy(attrs...)
			if err != nil {
				t.Fatal(err)
			}
			small := 0
			for _, c := range classes {
				if c.Size() < 2 {
					small += c.Size()
				}
			}
			out, err := s.Test(node)
			if err != nil {
				t.Fatal(err)
			}
			if out != (Outcome{OK: small == 0, Suppressed: small, Classes: len(classes)}) {
				t.Errorf("node %v: outcome %+v, want %d small rows in %d classes", node, out, small, len(classes))
			}
			s.Budget = tbl.Len()
			got, suppressed, err := s.Release(node)
			s.Budget = 0
			if err != nil {
				t.Fatal(err)
			}
			if suppressed != small || got.Len() != tbl.Len()-small {
				t.Errorf("node %v: released %d rows, suppressed %d; want %d suppressed", node, got.Len(), suppressed, small)
			}
			if small == 0 && !bytes.Equal(csvBytes(t, got), csvBytes(t, want)) {
				t.Errorf("node %v: release differs from FullDomain", node)
			}
		}
	}
	if s.Evaluated() != s.Lattice.Size() {
		t.Errorf("Evaluated = %d, want %d", s.Evaluated(), s.Lattice.Size())
	}
	a, _ := s.Column(0, 1)
	b, _ := s.Column(0, 1)
	if a != b {
		t.Error("Column recoded the same (attribute, level) twice")
	}
}

// TestSearchExtraAndCancel: extra criteria gate a node only once its
// suppression budget holds, and a canceled context stops the next test.
func TestSearchExtraAndCancel(t *testing.T) {
	tbl, hs := testTable(t)
	ctx, cancel := context.WithCancel(context.Background())
	var reports [][2]int
	s, err := NewSearch(ctx, tbl, nil, hs, 1, func(done, total int) { reports = append(reports, [2]int{done, total}) })
	if err != nil {
		t.Fatal(err)
	}
	s.K, s.Extra = 1, []privacy.Criterion{privacy.DistinctLDiversity{L: 2, Sensitive: "diag"}}
	bottom := make(lattice.Node, len(s.QI))
	if out, err := s.Test(bottom); err != nil || out.OK {
		t.Errorf("bottom node with singleton classes passed 2-diversity: %+v %v", out, err)
	}
	if out, err := s.Test(s.Lattice.Top()); err != nil || !out.OK {
		t.Errorf("top node failed 2-diversity: %+v %v", out, err)
	}
	if len(reports) != 2 || reports[1] != [2]int{2, s.Total} {
		t.Errorf("progress reports = %v", reports)
	}
	cancel()
	if _, err := s.Test(bottom); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled test error = %v", err)
	}
	empty := dataset.NewTable(dataset.MustSchema(dataset.Attribute{Name: "x", Kind: dataset.Sensitive, Type: dataset.Categorical}))
	if _, err := NewSearch(context.Background(), empty, nil, hs, 1, nil); !errors.Is(err, ErrNoQuasiIdentifiers) {
		t.Errorf("schema without quasi-identifiers: %v", err)
	}
}

// TestSearchTestAllMatchesSequential: TestAll returns, in node order, the
// outcomes of testing each node alone, for every worker count sharing one
// recode memo.
func TestSearchTestAllMatchesSequential(t *testing.T) {
	tbl, hs := testTable(t)
	seq, err := NewSearch(context.Background(), tbl, nil, hs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq.K = 2
	for _, workers := range []int{1, 4} {
		par, err := NewSearch(context.Background(), tbl, nil, hs, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		par.K = 2
		for h := 0; h <= par.Lattice.MaxHeight(); h++ {
			layer := par.Lattice.NodesAtHeight(h)
			got, err := par.TestAll(layer)
			if err != nil {
				t.Fatal(err)
			}
			for i, node := range layer {
				want, err := seq.Test(node)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Errorf("workers=%d node %v: TestAll %+v, Test %+v", workers, node, got[i], want)
				}
			}
		}
		if par.Evaluated() != par.Lattice.Size() {
			t.Errorf("workers=%d: Evaluated = %d, want %d", workers, par.Evaluated(), par.Lattice.Size())
		}
	}
}

// TestNewSearchDefaultsAndErrors: NewSearch fills in the schema's
// quasi-identifiers and the worker count, and rejects attributes without a
// hierarchy or a column.
func TestNewSearchDefaultsAndErrors(t *testing.T) {
	tbl, hs := testTable(t)
	s, err := NewSearch(context.Background(), tbl, nil, hs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(s.QI, ",") != "age,sex" || s.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("defaults: QI %v, Workers %d", s.QI, s.Workers)
	}
	if s.K != 1 || s.Budget != 0 || s.Total != s.Lattice.Size() || s.Lattice.Size() != 4*2 {
		t.Errorf("initial K %d, Budget %d, Total %d, lattice size %d", s.K, s.Budget, s.Total, s.Lattice.Size())
	}
	if _, err := NewSearch(context.Background(), tbl, []string{"age", "diag"}, hs, 1, nil); err == nil {
		t.Error("attribute without a hierarchy accepted")
	}
	extra := hierarchy.MustSet(
		hierarchy.MustInterval("age", 0, 99, []float64{10, 25}),
		hierarchy.MustCategory("zip", map[string][]string{"1": {"*"}}),
	)
	if _, err := NewSearch(context.Background(), tbl, []string{"age", "zip"}, extra, 1, nil); err == nil {
		t.Error("attribute missing from the schema accepted")
	}
}

// TestSearchColumnError: a value the hierarchy cannot generalize fails the
// node test and the release with the first row holding it, while nodes
// leaving that attribute ungeneralized still pass.
func TestSearchColumnError(t *testing.T) {
	tbl, hs := testTable(t)
	rows := tbl.Rows()
	rows[2][1], rows[4][1] = "other", "other"
	bad, err := dataset.FromRows(tbl.Schema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearch(context.Background(), bad, nil, hs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Test(lattice.Node{2, 0}); err != nil {
		t.Errorf("node leaving sex ungeneralized: %v", err)
	}
	if _, err := s.Test(lattice.Node{0, 1}); err == nil || !strings.Contains(err.Error(), `row 2 attribute "sex"`) {
		t.Errorf("Test error = %v, want one naming row 2", err)
	}
	if _, _, err := s.Release(lattice.Node{1, 1}); err == nil || !strings.Contains(err.Error(), `row 2 attribute "sex"`) {
		t.Errorf("Release error = %v, want one naming row 2", err)
	}
}

// TestSearchProgressCapped: progress never reports more than Total done,
// however often nodes are re-tested, and Release reports completion.
func TestSearchProgressCapped(t *testing.T) {
	tbl, hs := testTable(t)
	var last [2]int
	over := false
	s, err := NewSearch(context.Background(), tbl, nil, hs, 1, func(done, total int) {
		over = over || done > total
		last = [2]int{done, total}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Total = 2
	for i := 0; i < 5; i++ {
		if _, err := s.Test(s.Lattice.Top()); err != nil {
			t.Fatal(err)
		}
	}
	if over || last != [2]int{2, 2} || s.Evaluated() != 5 {
		t.Errorf("last report %v (overshoot %v), Evaluated %d", last, over, s.Evaluated())
	}
	last = [2]int{}
	if _, _, err := s.Release(s.Lattice.Top()); err != nil {
		t.Fatal(err)
	}
	if last != [2]int{2, 2} {
		t.Errorf("Release reported %v, want completion", last)
	}
}

func csvBytes(t *testing.T, tbl *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

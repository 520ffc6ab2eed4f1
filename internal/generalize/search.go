package generalize

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
	"github.com/ppdp/ppdp/internal/parallel"
	"github.com/ppdp/ppdp/internal/privacy"
)

// ErrNoQuasiIdentifiers is returned by NewSearch when neither the caller nor
// the table's schema names a quasi-identifier attribute.
var ErrNoQuasiIdentifiers = errors.New("no quasi-identifier attributes")

// Search is the full-domain search core shared by Datafly, Samarati,
// Incognito and TopDown. It tests lattice nodes against one requirement —
// k-anonymity after suppressing at most Budget rows, plus the Extra criteria
// — and releases the chosen node. Each (attribute, level) column is recoded
// at most once per search: a node's table is the input's clone with the
// memoized columns installed, so nodes sharing a level share its column and
// its cached statistics.
type Search struct {
	// QI is the attribute order of every node.
	QI []string
	// Lattice is the generalization lattice over QI.
	Lattice *lattice.Lattice
	// Workers bounds the pool of TestAll.
	Workers int
	// Total is the progress total reported with every tested node; it
	// starts at the lattice size, a bound for every search order.
	Total int
	// K is the minimum equivalence-class size; rows of smaller classes are
	// suppressed, at most Budget of them (see SuppressionBudget). A node
	// passes when that budget holds and every Extra criterion holds on the
	// node's table.
	K      int
	Budget int
	Extra  []privacy.Criterion

	ctx       context.Context
	t         *dataset.Table
	hier      []hierarchy.Hierarchy
	cols      []int
	memo      [][]memoColumn
	progress  func(done, total int)
	evaluated atomic.Int64
}

// memoColumn is one recoded (attribute, level) column, built on first use.
type memoColumn struct {
	once sync.Once
	cc   *dataset.CodedColumn
	err  error
}

// Outcome is the result of testing one node.
type Outcome struct {
	// OK reports that the node meets the search's requirement.
	OK bool
	// Suppressed counts the rows in classes smaller than K.
	Suppressed int
	// Classes is the number of equivalence classes.
	Classes int
}

// NewSearch prepares a search over t. An empty qi selects the schema's
// quasi-identifier columns; workers == 0 selects runtime.GOMAXPROCS(0); a
// nil progress sink discards reports. K starts at 1, Budget at 0.
func NewSearch(ctx context.Context, t *dataset.Table, qi []string, hs *hierarchy.Set, workers int, progress func(done, total int)) (*Search, error) {
	if len(qi) == 0 {
		qi = t.Schema().QuasiIdentifierNames()
	}
	if len(qi) == 0 {
		return nil, ErrNoQuasiIdentifiers
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if progress == nil {
		progress = func(int, int) {}
	}
	s := &Search{
		QI:       slices.Clone(qi),
		Workers:  workers,
		K:        1,
		ctx:      ctx,
		t:        t,
		hier:     make([]hierarchy.Hierarchy, len(qi)),
		cols:     make([]int, len(qi)),
		memo:     make([][]memoColumn, len(qi)),
		progress: progress,
	}
	maxLevels := make([]int, len(qi))
	for i, attr := range qi {
		h, err := hs.Get(attr)
		if err != nil {
			return nil, err
		}
		if s.cols[i], err = t.Schema().Index(attr); err != nil {
			return nil, err
		}
		s.hier[i], maxLevels[i] = h, h.MaxLevel()
		s.memo[i] = make([]memoColumn, h.MaxLevel()+1)
	}
	lat, err := lattice.New(s.QI, maxLevels)
	if err != nil {
		return nil, err
	}
	s.Lattice, s.Total = lat, lat.Size()
	return s, nil
}

// SuppressionBudget returns the largest row count b with b/n <= maxFraction:
// the most rows a release of n rows may suppress under that fraction.
func SuppressionBudget(n int, maxFraction float64) int {
	b := int(maxFraction * float64(n)) // off by at most one either way
	for b < n && float64(b+1)/float64(n) <= maxFraction {
		b++
	}
	for b > 0 && float64(b)/float64(n) > maxFraction {
		b--
	}
	return b
}

// Column returns quasi-identifier i generalized to level, recoding it on
// first use. It is safe for concurrent use.
func (s *Search) Column(i, level int) (*dataset.CodedColumn, error) {
	if level == 0 {
		return s.t.CodedColumn(s.cols[i])
	}
	m := &s.memo[i][level]
	m.once.Do(func() {
		cc, _ := s.t.CodedColumn(s.cols[i])
		m.cc, m.err = recodeLevel(cc, s.QI[i], s.hier[i], level)
	})
	return m.cc, m.err
}

// Test checks one node. It polls the context and reports progress first, so
// a canceled search stops within one node.
func (s *Search) Test(node lattice.Node) (Outcome, error) {
	if err := s.ctx.Err(); err != nil {
		return Outcome{}, fmt.Errorf("full-domain search: %w", err)
	}
	s.progress(min(int(s.evaluated.Add(1)), s.Total), s.Total)
	tbl, classes, err := s.group(node)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Classes: len(classes)}
	for _, c := range classes {
		if c.Size() < s.K {
			out.Suppressed += c.Size()
		}
	}
	out.OK = out.Suppressed <= s.Budget
	if out.OK && len(s.Extra) > 0 {
		out.OK, _, err = privacy.CheckAll(tbl, classes, s.Extra...)
	}
	return out, err
}

// TestAll checks independent nodes on the worker pool and returns their
// outcomes in node order, so callers fold them identically for every worker
// count.
func (s *Search) TestAll(nodes []lattice.Node) ([]Outcome, error) {
	return parallel.Map(len(nodes), s.Workers, func(i int) (Outcome, error) { return s.Test(nodes[i]) })
}

// Evaluated returns the number of nodes tested so far.
func (s *Search) Evaluated() int { return int(s.evaluated.Load()) }

// Release materializes node, suppresses the rows of classes smaller than K
// and reports the search complete. It returns the released table and the
// number of suppressed rows.
func (s *Search) Release(node lattice.Node) (*dataset.Table, int, error) {
	tbl, classes, err := s.group(node)
	if err != nil {
		return nil, 0, err
	}
	var drop []int
	for _, c := range classes {
		if c.Size() < s.K {
			drop = append(drop, c.Rows...)
		}
	}
	if len(drop) > 0 {
		if tbl, err = SuppressRows(tbl, drop); err != nil {
			return nil, 0, err
		}
	}
	s.progress(s.Total, s.Total)
	return tbl, len(drop), nil
}

// group materializes node and partitions it on the quasi-identifier.
func (s *Search) group(node lattice.Node) (*dataset.Table, []dataset.EquivalenceClass, error) {
	tbl := s.t.Clone()
	for i, level := range node {
		if level == 0 {
			continue
		}
		cc, err := s.Column(i, level)
		if err != nil {
			return nil, nil, err
		}
		if err := tbl.SetColumn(s.cols[i], cc); err != nil {
			return nil, nil, err
		}
	}
	classes, err := tbl.GroupBy(s.QI...)
	return tbl, classes, err
}

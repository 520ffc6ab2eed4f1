// Package samarati implements Samarati's full-domain anonymization algorithm:
// a binary search on the height of the generalization lattice for the lowest
// height at which some node achieves k-anonymity with at most MaxSuppression
// records suppressed. Among the satisfying nodes of that height, the node
// suppressing the fewest records is released.
// Nodes are tested on the shared full-domain search core
// (generalize.Search). The nodes of one height level are independent of each
// other, so each level is tested by a bounded worker pool
// (Config.Workers); the released node is identical for every worker count
// because the fewest-suppressions fold happens sequentially, in level order,
// after the pool joins.
package samarati

import (
	"context"
	"errors"
	"fmt"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
)

// Common errors. Each carries its engine class (engine.ErrConfig or
// engine.ErrUnsatisfiable), so errors.Is matches either.
var (
	// ErrUnsatisfiable is returned when no lattice node achieves k-anonymity
	// within the suppression budget.
	ErrUnsatisfiable = engine.UnsatisfiableError(errors.New("samarati: no generalization satisfies k-anonymity within the suppression budget"))
	// ErrConfig is returned for invalid configurations.
	ErrConfig = engine.ConfigError(errors.New("samarati: invalid configuration"))
)

// Config controls a Samarati run.
type Config struct {
	// K is the required minimum equivalence-class size.
	K int
	// QuasiIdentifiers lists the attributes to generalize; when empty the
	// schema's quasi-identifier columns are used.
	QuasiIdentifiers []string
	// Hierarchies supplies a hierarchy for every quasi-identifier.
	Hierarchies *hierarchy.Set
	// MaxSuppression is the maximum fraction of records (0..1) that may be
	// suppressed: the budget is the largest row count b with
	// b/rows <= MaxSuppression.
	MaxSuppression float64
	// Workers bounds the pool that evaluates one height level's lattice
	// nodes concurrently. Zero uses runtime.GOMAXPROCS(0); 1 forces a
	// sequential run. The released node is identical for every count.
	Workers int
	// Progress, when non-nil, receives (done, total) after every evaluated
	// lattice node — the same unit of work the context is polled at. Total is
	// the lattice size (an upper bound: the binary search visits a subset);
	// a successful run ends with a (total, total) event. Pool workers report
	// concurrently and may interleave out of order; callers that need a
	// monotone stream wrap the sink (see engine.Monotone, which the engine
	// adapter applies).
	Progress func(done, total int)
}

// Result describes the outcome of a Samarati run.
type Result struct {
	// Table is the released table.
	Table *dataset.Table
	// Node is the chosen lattice node.
	Node lattice.Node
	// QuasiIdentifiers is the attribute order Node refers to.
	QuasiIdentifiers []string
	// SuppressedRows is the number of removed records.
	SuppressedRows int
	// Height is the chosen node's lattice height.
	Height int
	// NodesEvaluated counts how many lattice nodes were checked.
	NodesEvaluated int
}

// Anonymize runs Samarati's binary lattice search over t with no
// cancellation; it is shorthand for AnonymizeContext with a background
// context.
func Anonymize(t *dataset.Table, cfg Config) (*Result, error) {
	return AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext runs Samarati's binary lattice search over t. The context
// is polled once per evaluated lattice node — the search's natural unit of
// work — so a canceled or timed-out run returns ctx.Err() after at most one
// node's recoding instead of a release.
func AnonymizeContext(ctx context.Context, t *dataset.Table, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("%w: k = %d", ErrConfig, cfg.K)
	}
	if cfg.Hierarchies == nil {
		return nil, fmt.Errorf("%w: nil hierarchy set", ErrConfig)
	}
	if cfg.MaxSuppression < 0 || cfg.MaxSuppression > 1 {
		return nil, fmt.Errorf("%w: max suppression %v", ErrConfig, cfg.MaxSuppression)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: workers = %d", ErrConfig, cfg.Workers)
	}
	s, err := generalize.NewSearch(ctx, t, cfg.QuasiIdentifiers, cfg.Hierarchies, cfg.Workers, cfg.Progress)
	if errors.Is(err, generalize.ErrNoQuasiIdentifiers) {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if err != nil {
		return nil, err
	}
	s.K, s.Budget = cfg.K, generalize.SuppressionBudget(t.Len(), cfg.MaxSuppression)

	// Binary search the minimal height with a satisfying node; the top node
	// maximally generalizes, so if it fails nothing succeeds. The search ends
	// with lo == foundHeight, and lo only rises past a failing height, so
	// the height below the found one has already been tested and failed.
	// Within a height the fold runs in level order, so the pick is identical
	// for every worker count.
	lo, hi := 0, s.Lattice.MaxHeight()
	var found lattice.Node
	foundHeight := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		level := s.Lattice.NodesAtHeight(mid)
		outcomes, err := s.TestAll(level)
		if err != nil {
			return nil, err
		}
		best := -1
		for i, out := range outcomes {
			if out.OK && (best == -1 || out.Suppressed < outcomes[best].Suppressed) {
				best = i
			}
		}
		if best >= 0 {
			found, foundHeight = level[best], mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if found == nil {
		return nil, fmt.Errorf("%w (k=%d, budget=%d rows)", ErrUnsatisfiable, cfg.K, s.Budget)
	}
	released, suppressed, err := s.Release(found)
	if err != nil {
		return nil, err
	}
	return &Result{
		Table:            released,
		Node:             found,
		QuasiIdentifiers: s.QI,
		SuppressedRows:   suppressed,
		Height:           foundHeight,
		NodesEvaluated:   s.Evaluated(),
	}, nil
}

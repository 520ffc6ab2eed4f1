// Package datafly implements Sweeney's Datafly algorithm: a greedy
// full-domain generalization heuristic that repeatedly generalizes the
// quasi-identifier attribute with the most distinct values until the table is
// k-anonymous up to a bounded amount of record suppression. Each round tests
// one lattice node on the shared full-domain search core
// (generalize.Search); a candidate's distinct-value count is read from the
// core's memoized (attribute, level) column, so scoring a round costs one
// lookup per attribute.
package datafly

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
	// ErrUnsatisfiable is returned when even full generalization with the
	// allowed suppression budget cannot reach k-anonymity.
	ErrUnsatisfiable = engine.UnsatisfiableError(errors.New("datafly: k-anonymity not reachable within the suppression budget"))
	// ErrConfig is returned for invalid configurations.
	ErrConfig = engine.ConfigError(errors.New("datafly: invalid configuration"))
)

// Config controls a Datafly run.
type Config struct {
	// K is the required minimum equivalence-class size.
	K int
	// QuasiIdentifiers lists the attributes to generalize; when empty the
	// schema's quasi-identifier columns are used.
	QuasiIdentifiers []string
	// Hierarchies supplies a hierarchy for every quasi-identifier.
	Hierarchies *hierarchy.Set
	// MaxSuppression is the maximum fraction of records (0..1) that may be
	// removed instead of generalized further. Sweeney's original heuristic
	// allows suppressing up to k records; expressing the budget as a
	// fraction matches how the experiments sweep it; the budget is the
	// largest row count b with b/rows <= MaxSuppression.
	MaxSuppression float64
	// Progress, when non-nil, receives (done, total) after every
	// generalization round is tested — the same unit of work the context is
	// polled at. Total is the worst-case round count (one per hierarchy level
	// across the quasi-identifier, plus the final check); a successful run
	// ends with a (total, total) event.
	Progress func(done, total int)
}

// Result describes the outcome of a Datafly run.
type Result struct {
	// Table is the released, generalized (and possibly row-suppressed) table.
	Table *dataset.Table
	// Node is the full-domain generalization level per quasi-identifier, in
	// QuasiIdentifiers order.
	Node lattice.Node
	// QuasiIdentifiers is the attribute order Node refers to.
	QuasiIdentifiers []string
	// SuppressedRows is the number of records removed.
	SuppressedRows int
	// Iterations is the number of generalization steps performed.
	Iterations int
}

// Anonymize runs Datafly over t with no cancellation; it is shorthand for
// AnonymizeContext with a background context.
func Anonymize(t *dataset.Table, cfg Config) (*Result, error) {
	return AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext runs Datafly over t. The context is polled once per
// generalization round — the algorithm's natural unit of work — so a
// canceled or timed-out run returns ctx.Err() after at most one round
// instead of a release.
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
	s, err := generalize.NewSearch(ctx, t, cfg.QuasiIdentifiers, cfg.Hierarchies, 1, cfg.Progress)
	if errors.Is(err, generalize.ErrNoQuasiIdentifiers) {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if err != nil {
		return nil, err
	}
	s.K, s.Budget = cfg.K, generalize.SuppressionBudget(t.Len(), cfg.MaxSuppression)
	// Worst case the heuristic generalizes one attribute level per round
	// until every attribute tops out, then runs one final check round.
	s.Total = s.Lattice.MaxHeight() + 1
	maxLevels := s.Lattice.Top()

	node := make(lattice.Node, len(s.QI))
	for {
		out, err := s.Test(node)
		if err != nil {
			return nil, err
		}
		if out.OK {
			break
		}
		// Generalize the attribute with the most distinct values, among
		// attributes that still have headroom; the first wins a tie.
		pick, maxDistinct := -1, -1
		for i := range node {
			if node[i] >= maxLevels[i] {
				continue
			}
			cc, err := s.Column(i, node[i])
			if err != nil {
				return nil, err
			}
			if n := len(cc.Stats().Lex); n > maxDistinct {
				pick, maxDistinct = i, n
			}
		}
		if pick == -1 {
			return nil, fmt.Errorf("%w: %d records still violate %d-anonymity at full generalization (budget %d)",
				ErrUnsatisfiable, out.Suppressed, cfg.K, s.Budget)
		}
		node[pick]++
	}
	released, suppressed, err := s.Release(node)
	if err != nil {
		return nil, err
	}
	return &Result{
		Table:            released,
		Node:             node,
		QuasiIdentifiers: s.QI,
		SuppressedRows:   suppressed,
		Iterations:       node.Height(),
	}, nil
}

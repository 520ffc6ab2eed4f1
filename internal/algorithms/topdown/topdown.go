// Package topdown implements a top-down specialization (TDS) anonymizer in
// the style of Fung, Wang and Yu: the release starts from the fully
// generalized table (every quasi-identifier at its hierarchy root) and is
// repeatedly specialized one attribute level at a time, always choosing the
// specialization with the most equivalence classes (finer data, more
// information for classification workloads), for as long as the privacy
// criteria remain satisfied. Because specialization only ever refines
// equivalence classes, the walk can stop at the first level where every
// further specialization violates the criteria, yielding a minimally
// generalized full-domain release.
// Candidates are tested on the shared full-domain search core
// (generalize.Search). Candidate specializations of one step are independent
// of each other, so they are tested by a bounded worker pool
// (Config.Workers); the chosen specialization is identical for every worker
// count because the tie-breaking fold happens sequentially after the pool
// joins. Runs are cancelable: AnonymizeContext polls the context once per
// tested candidate and returns ctx.Err() without publishing a partial
// result.
package topdown

import (
	"context"
	"errors"
	"fmt"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
	"github.com/ppdp/ppdp/internal/privacy"
)

// Common errors. Each carries its engine class (engine.ErrConfig or
// engine.ErrUnsatisfiable), so errors.Is matches either.
var (
	// ErrConfig is returned for invalid configurations.
	ErrConfig = engine.ConfigError(errors.New("topdown: invalid configuration"))
	// ErrUnsatisfiable is returned when even the fully generalized table
	// violates the privacy criteria.
	ErrUnsatisfiable = engine.UnsatisfiableError(errors.New("topdown: privacy criteria fail even at full generalization"))
)

// Config controls a top-down specialization run.
type Config struct {
	// K is the required minimum equivalence-class size.
	K int
	// QuasiIdentifiers lists the attributes to generalize; when empty the
	// schema's quasi-identifier columns are used.
	QuasiIdentifiers []string
	// Hierarchies supplies a hierarchy for every quasi-identifier.
	Hierarchies *hierarchy.Set
	// Extra lists additional privacy criteria gating every specialization.
	Extra []privacy.Criterion
	// Workers bounds the pool that evaluates one step's candidate
	// specializations concurrently. Zero uses runtime.GOMAXPROCS(0); 1
	// forces a sequential run. The released node is identical for every
	// count.
	Workers int
	// Progress, when non-nil, receives (done, total) after every evaluated
	// candidate specialization — the same unit of work the context is polled
	// at. Total is the lattice size (an upper bound: the walk evaluates the
	// top node plus each step's predecessors); a successful run ends with a
	// (total, total) event. Pool workers report concurrently and may
	// interleave out of order; callers that need a monotone stream wrap the
	// sink (see engine.Monotone, which the engine adapter applies).
	Progress func(done, total int)
}

// Result describes the outcome of a run.
type Result struct {
	// Table is the released table.
	Table *dataset.Table
	// Node is the final full-domain generalization node.
	Node lattice.Node
	// QuasiIdentifiers is the attribute order Node refers to.
	QuasiIdentifiers []string
	// Specializations is the number of accepted specialization steps.
	Specializations int
}

// Anonymize runs top-down specialization over t with no cancellation; it is
// shorthand for AnonymizeContext with a background context.
func Anonymize(t *dataset.Table, cfg Config) (*Result, error) {
	return AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext runs top-down specialization over t. The context is
// polled once per evaluated candidate specialization, so a canceled or
// timed-out run returns ctx.Err() after at most one candidate's recoding
// instead of a result.
func AnonymizeContext(ctx context.Context, t *dataset.Table, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("%w: k = %d", ErrConfig, cfg.K)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: workers = %d", ErrConfig, cfg.Workers)
	}
	if cfg.Hierarchies == nil {
		return nil, fmt.Errorf("%w: nil hierarchy set", ErrConfig)
	}
	s, err := generalize.NewSearch(ctx, t, cfg.QuasiIdentifiers, cfg.Hierarchies, cfg.Workers, cfg.Progress)
	if errors.Is(err, generalize.ErrNoQuasiIdentifiers) {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if err != nil {
		return nil, err
	}
	s.K, s.Extra = cfg.K, cfg.Extra

	current := s.Lattice.Top()
	out, err := s.Test(current)
	if err != nil {
		return nil, err
	}
	if !out.OK {
		return nil, fmt.Errorf("%w (k=%d, %d rows)", ErrUnsatisfiable, cfg.K, t.Len())
	}
	steps := 0
	for {
		preds := s.Lattice.Predecessors(current)
		outcomes, err := s.TestAll(preds)
		if err != nil {
			return nil, err
		}
		// Fold in candidate order, so the walk is identical for every worker
		// count: the first candidate with the most classes wins.
		best := -1
		for i, out := range outcomes {
			if out.OK && (best == -1 || out.Classes > outcomes[best].Classes) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		current = preds[best]
		steps++
	}
	released, _, err := s.Release(current)
	if err != nil {
		return nil, err
	}
	return &Result{
		Table:            released,
		Node:             current,
		QuasiIdentifiers: s.QI,
		Specializations:  steps,
	}, nil
}

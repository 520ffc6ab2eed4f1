// Package incognito implements a full-domain lattice search in the spirit of
// LeFevre et al.'s Incognito: a bottom-up, breadth-first traversal of the
// generalization lattice that exploits the generalization (rollup) property —
// once a node satisfies the privacy criterion every node that dominates it
// does too, so dominated-by-none minimal satisfying nodes are the complete
// answer set. The released node is the first minimal node of the lowest
// height.
//
// The original Incognito additionally prunes using single-attribute and
// attribute-subset lattices before combining them; this implementation keeps
// the subset pre-check for single attributes (cheap and effective) and then
// searches the full lattice breadth-first with rollup pruning.
//
// Nodes are tested on the shared full-domain search core
// (generalize.Search). Lattice nodes at one height are independent of each
// other — no node can dominate a distinct node of equal height — so each
// breadth-first layer is tested by its bounded worker pool (Config.Workers).
// The result is identical for every worker count: outcomes are folded back
// in node order. Runs are cancelable: AnonymizeContext polls the context
// once per tested lattice node and returns ctx.Err() without publishing a
// partial result.
package incognito

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
	// ErrUnsatisfiable is returned when no lattice node satisfies the
	// criteria.
	ErrUnsatisfiable = engine.UnsatisfiableError(errors.New("incognito: no full-domain generalization satisfies the privacy criteria"))
	// ErrConfig is returned for invalid configurations.
	ErrConfig = engine.ConfigError(errors.New("incognito: invalid configuration"))
)

// Config controls an Incognito run.
type Config struct {
	// K is the required minimum equivalence-class size.
	K int
	// QuasiIdentifiers lists the attributes to generalize; when empty the
	// schema's quasi-identifier columns are used.
	QuasiIdentifiers []string
	// Hierarchies supplies a hierarchy for every quasi-identifier.
	Hierarchies *hierarchy.Set
	// Extra lists additional privacy criteria (l-diversity, t-closeness, ...)
	// that the released node must satisfy on top of k-anonymity. All extra
	// criteria must be monotone under generalization for the rollup pruning
	// to remain sound; the models in the privacy package are.
	Extra []privacy.Criterion
	// Workers bounds the pool that checks the independent nodes of one
	// lattice layer concurrently. Zero uses runtime.GOMAXPROCS(0); 1 forces
	// a sequential search. The released node is identical for every count.
	Workers int
	// Progress, when non-nil, receives (done, total) after every evaluated
	// lattice node — the same unit of work the context is polled at. Total is
	// the lattice size (an upper bound: pruning skips dominated nodes); a
	// successful run ends with a (total, total) event. Pool workers report
	// concurrently and may interleave out of order; callers that need a
	// monotone stream wrap the sink (see engine.Monotone, which the engine
	// adapter applies).
	Progress func(done, total int)
}

// Result describes the outcome of an Incognito run.
type Result struct {
	// Table is the released table (no suppression: Incognito releases whole
	// classes at the chosen recoding).
	Table *dataset.Table
	// Node is the chosen lattice node.
	Node lattice.Node
	// QuasiIdentifiers is the attribute order Node refers to.
	QuasiIdentifiers []string
	// MinimalNodes are all minimal satisfying nodes discovered.
	MinimalNodes []lattice.Node
	// NodesEvaluated counts the tested lattice nodes.
	NodesEvaluated int
}

// Anonymize runs the lattice search over t with no cancellation; it is
// shorthand for AnonymizeContext with a background context.
func Anonymize(t *dataset.Table, cfg Config) (*Result, error) {
	return AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext runs the lattice search over t. The context is polled
// once per evaluated lattice node, in the sequential pre-check and by every
// pool worker, so a canceled or timed-out run returns ctx.Err() after at
// most one node's recoding instead of a result.
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

	// Subset pre-check: the minimum level per single attribute at which that
	// attribute alone (with all others fully generalized) can satisfy
	// k-anonymity. Levels below that floor can never appear in a satisfying
	// node, so the breadth-first search skips them.
	maxLevels := s.Lattice.Top()
	floors := make([]int, len(s.QI))
	for i := range s.QI {
		for level := 0; ; level++ {
			node := s.Lattice.Top()
			node[i] = level
			out, err := s.Test(node)
			if err != nil {
				return nil, err
			}
			if out.OK {
				floors[i] = level
				break
			}
			if level == maxLevels[i] {
				return nil, fmt.Errorf("%w (attribute %q cannot reach %d-anonymity even fully generalized elsewhere)",
					ErrUnsatisfiable, s.QI[i], cfg.K)
			}
		}
	}

	// Breadth-first search by height with rollup pruning.
	var minimal []lattice.Node
	skip := func(n lattice.Node) bool {
		for i := range n {
			if n[i] < floors[i] {
				return true
			}
		}
		for _, m := range minimal {
			if n.Dominates(m) {
				return true
			}
		}
		return false
	}
	for h := 0; h <= s.Lattice.MaxHeight(); h++ {
		// Nodes of equal height cannot dominate one another (domination with
		// equal component sums forces equality), so pruning only ever uses
		// minimal nodes from lower layers: the surviving nodes of this layer
		// are independent and safe to test concurrently.
		var layer []lattice.Node
		for _, node := range s.Lattice.NodesAtHeight(h) {
			if !skip(node) {
				layer = append(layer, node)
			}
		}
		outcomes, err := s.TestAll(layer)
		if err != nil {
			return nil, err
		}
		for i, out := range outcomes {
			if out.OK {
				minimal = append(minimal, layer[i])
			}
		}
	}
	if len(minimal) == 0 {
		return nil, fmt.Errorf("%w (k=%d)", ErrUnsatisfiable, cfg.K)
	}
	// Layers run by height, so minimal[0] is the first node of the lowest
	// satisfying height.
	released, _, err := s.Release(minimal[0])
	if err != nil {
		return nil, err
	}
	return &Result{
		Table:            released,
		Node:             minimal[0],
		QuasiIdentifiers: s.QI,
		MinimalNodes:     minimal,
		NodesEvaluated:   s.Evaluated(),
	}, nil
}

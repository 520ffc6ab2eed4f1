// Package engine is the pluggable algorithm layer of the release pipeline:
// every anonymization algorithm is an Algorithm implementation registered in
// a process-wide registry, and every caller that needs to know "what
// algorithms exist, what parameters do they take, how do I run one" asks the
// registry instead of maintaining its own list.
//
// The engine owns the algorithm contract. An adapter lives next to each
// algorithm package (see internal/algorithms/*/engine.go) and is two
// methods: Describe returns the algorithm's capability card (Info) and Run
// executes it. Everything an algorithm accepts is declared once, in that
// card, and the engine derives the rest from it:
//
//   - Validate checks a Spec against the card before any data is touched:
//     supported criteria, each Required parameter (k, l, policy), and
//     RequiresHierarchies.
//   - Info.FlatPolicy translates the deprecated flat parameters, filling a
//     declared Param.Default only for the algorithms that declare it, so the
//     HTTP service and the CLI declare the same policy.
//   - Error classes travel with the errors themselves: each algorithm
//     package declares its sentinels through ConfigError or
//     UnsatisfiableError, so Run returns them unchanged and callers match
//     either the package sentinel or the engine class with errors.Is.
//
// Adapters self-register in init; the blank imports in internal/engine/all
// pull every built-in adapter into a binary. Adding an eighth algorithm is
// one new package plus one import line — core, server, CLI and experiments
// pick it up from the registry metadata with no further edits.
//
// Execution is uniform: Run takes a context.Context that every algorithm
// polls at its natural unit of work (lattice node, generalization round,
// specialization step, cluster, bucket round, partition subtree), and a Spec
// whose Workers field bounds internal parallelism for the algorithms that
// can use it (see Info.Parallel). The same per-unit sites double as progress
// reporting points: a Spec.Progress sink receives (done, total) events as the
// run advances, and every adapter routes its algorithm's raw counter through
// Monotone so the delivered stream is strictly increasing and race-safe even
// under internal worker pools.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/privacy"
)

// Progress is a sink for engine-level progress reporting. A run calls it
// with the number of completed units of work and the run's total (total is
// fixed for the whole run; it may be an upper bound for algorithms whose
// exact unit count is unknown up front, in which case a successful run emits
// a final (total, total) event). Events delivered through Monotone are
// serialized and strictly increasing in done, so sinks need no locking of
// their own.
type Progress func(done, total int)

// Monotone wraps sink so the delivered stream is race-safe and strictly
// increasing in done: concurrent reporters (worker pools) may publish counter
// values out of order, and the wrapper drops every event that does not
// advance past the last delivered one. Calls to the underlying sink are
// serialized. A nil sink wraps to nil, so algorithms can keep a cheap
// "progress disabled" fast path.
func Monotone(sink Progress) Progress {
	if sink == nil {
		return nil
	}
	var mu sync.Mutex
	last := -1
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done <= last {
			return
		}
		last = done
		sink(done, total)
	}
}

// Spec is the algorithm-agnostic run specification. Each algorithm reads the
// subset of fields its Describe metadata declares and ignores the rest; the
// caller (internal/core) resolves defaults — the sensitive attribute and the
// extra privacy criteria — before handing the Spec to Run.
type Spec struct {
	// K is the k-anonymity parameter.
	K int
	// L is the l-diversity parameter (Anatomy's bucket size).
	L int
	// Sensitive is the resolved sensitive attribute ("" when none).
	Sensitive string
	// QuasiIdentifiers restricts the quasi-identifier; empty means the
	// schema's quasi-identifier columns.
	QuasiIdentifiers []string
	// Hierarchies supplies generalization hierarchies.
	Hierarchies *hierarchy.Set
	// MaxSuppression bounds record suppression as a fraction of the table.
	MaxSuppression float64
	// Strict selects strict (never split ties) partitioning where the
	// algorithm distinguishes it.
	Strict bool
	// Workers bounds internal parallelism: 0 means GOMAXPROCS, 1 forces a
	// sequential run. Ignored by algorithms whose Info.Parallel is false.
	Workers int
	// Extra lists additional privacy criteria (l-diversity, t-closeness, ...)
	// for algorithms that gate their search on arbitrary criteria.
	Extra []privacy.Criterion
	// Policy is the declarative privacy policy the run enforces; the caller
	// (internal/core) resolves it and mirrors it into the scalar fields above
	// (K, L, MaxSuppression) and Extra, which the algorithms keep reading.
	// Validate checks it against the algorithm's Info.Criteria, so a policy
	// naming a criterion the algorithm cannot enforce fails before any data
	// is touched. Nil when the caller bypasses the policy layer (direct
	// engine users, tests).
	Policy *policy.Policy
	// Progress receives (done, total) events as the run advances, reported at
	// the same per-unit sites where the algorithm polls its context. Nil
	// disables reporting. Adapters wrap the sink with Monotone, so callers may
	// pass plain closures without worrying about worker-pool interleaving.
	Progress Progress
}

// Result is the uniform outcome of a Run: a single microdata table, or a
// QIT/ST pair for bucketizing algorithms, plus the release metadata the
// pipeline reports.
type Result struct {
	// Table is the released microdata table (nil for bucketizing algorithms).
	Table *dataset.Table
	// QIT and ST are the bucketized releases (nil for microdata algorithms).
	QIT *dataset.Table
	ST  *dataset.Table
	// Node is the full-domain generalization node when the algorithm
	// searches a lattice, in quasi-identifier order.
	Node []int
	// SuppressedRows is the number of records the algorithm removed.
	SuppressedRows int
	// Groups partitions the released table's rows into the groups the
	// algorithm recoded: every row is in exactly one group, and a group's
	// rows agree on every quasi-identifier column the run recoded. Groups
	// with equal recoded values may repeat a value tuple. Nil when the
	// algorithm does not partition (full-domain and bucketizing algorithms).
	// Measurement derives the release's equivalence classes from it (see
	// dataset.Table.GroupByPartition) instead of regrouping the rows.
	Groups [][]int
}

// ReleaseKind classifies what a Run publishes.
type ReleaseKind string

// Release kinds.
const (
	// Microdata algorithms release one generalized table.
	Microdata ReleaseKind = "microdata"
	// Bucketized algorithms release a QIT/ST pair.
	Bucketized ReleaseKind = "bucketized"
)

// Param describes one parameter an algorithm reads, named as in the HTTP API
// (underscored). The CLI derives its flag name from Flag when set, otherwise
// from Name with underscores turned into dashes.
type Param struct {
	// Name is the wire name of the parameter (e.g. "max_suppression").
	Name string `json:"name"`
	// Flag overrides the derived CLI flag name (e.g. "strict" for the wire
	// name "strict_mondrian"). It is a CLI-only concern and stays out of the
	// HTTP listing, whose wire contract is the underscored Name.
	Flag string `json:"-"`
	// Type is the parameter's type: "int", "float", "bool", "string" or
	// "[]string".
	Type string `json:"type"`
	// Required marks parameters without a usable zero default; Validate
	// checks each one ("k" >= 1, "l" >= 2, a "policy" carrying one of the
	// algorithm's criteria).
	Required bool `json:"required"`
	// Default is the value Info.FlatPolicy substitutes when a flat caller
	// omits the parameter (nil when the zero value simply disables the
	// feature). It is declared once, here, so the HTTP service, the CLI and
	// GET /v1/algorithms can never drift apart. Use int for "int" parameters
	// and float64 for "float" ones.
	Default any `json:"default,omitempty"`
	// Description is a one-line human summary.
	Description string `json:"description"`
}

// IntDefault returns the parameter's declared integer default, or fallback
// when none is declared.
func (p Param) IntDefault(fallback int) int {
	if v, ok := p.Default.(int); ok {
		return v
	}
	return fallback
}

// FloatDefault returns the parameter's declared float default, or fallback
// when none is declared.
func (p Param) FloatDefault(fallback float64) float64 {
	switch v := p.Default.(type) {
	case float64:
		return v
	case int:
		return float64(v)
	}
	return fallback
}

// Info is the machine-readable capability card of an algorithm. The server
// serves it verbatim from GET /v1/algorithms and the CLI renders its usage
// listing from it.
type Info struct {
	// Name is the registry key (lowercase, exact-match).
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description"`
	// Kind reports what a run releases.
	Kind ReleaseKind `json:"kind"`
	// FullDomain marks algorithms whose release carries a lattice node.
	FullDomain bool `json:"full_domain,omitempty"`
	// RequiresHierarchies marks algorithms that cannot run without a
	// generalization hierarchy per quasi-identifier; Validate enforces it.
	RequiresHierarchies bool `json:"requires_hierarchies,omitempty"`
	// Parallel marks algorithms that honor Spec.Workers internally.
	Parallel bool `json:"parallel,omitempty"`
	// CostExponent is the rough polynomial degree of the algorithm's running
	// time in the number of records (1 ≈ near-linear, 2 = quadratic);
	// schedulers and experiments use it to cap expensive algorithms.
	CostExponent float64 `json:"cost_exponent,omitempty"`
	// Default marks the algorithm Lookup("") resolves to.
	Default bool `json:"default,omitempty"`
	// Criteria lists the policy criterion types (see internal/policy) the
	// algorithm can enforce. A policy naming any other type is rejected by
	// Validate before the run starts; the capability card served on
	// GET /v1/algorithms carries the list so clients can check up front.
	Criteria []string `json:"criteria"`
	// Parameters lists every Spec field the algorithm reads.
	Parameters []Param `json:"parameters"`
}

// SupportsCriterion reports whether the algorithm can enforce the given
// policy criterion type.
func (i Info) SupportsCriterion(typ string) bool {
	for _, t := range i.Criteria {
		if t == typ {
			return true
		}
	}
	return false
}

// Param returns the named parameter declaration, if the algorithm reads it.
func (i Info) Param(name string) (Param, bool) {
	for _, p := range i.Parameters {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Algorithm is one pluggable anonymization algorithm.
type Algorithm interface {
	// Describe returns the machine-readable capability/parameter metadata:
	// the whole contract Validate checks a Spec against.
	Describe() Info
	// Run executes the algorithm. Implementations poll ctx at their natural
	// unit of work and return ctx.Err() (wrapped) on cancellation without
	// publishing partial state.
	Run(ctx context.Context, t *dataset.Table, spec Spec) (*Result, error)
}

// Error classes. Algorithm packages declare their sentinel errors through
// ConfigError/UnsatisfiableError, so callers (the HTTP service) can map any
// algorithm's failure onto a status code without naming algorithm packages.
var (
	// ErrUnknownAlgorithm is returned by Lookup for unregistered names.
	ErrUnknownAlgorithm = errors.New("engine: unknown algorithm")
	// ErrConfig classifies invalid-configuration failures.
	ErrConfig = errors.New("engine: invalid algorithm configuration")
	// ErrUnsatisfiable classifies runs whose privacy criteria no release can
	// meet.
	ErrUnsatisfiable = errors.New("engine: privacy criteria unsatisfiable")
)

// classified attaches an error class to err: errors.Is matches both the
// class sentinel and everything in err's own chain.
type classified struct {
	err   error
	class error
}

func (c *classified) Error() string        { return c.err.Error() }
func (c *classified) Unwrap() error        { return c.err }
func (c *classified) Is(target error) bool { return target == c.class }

// ConfigError marks err as an invalid-configuration failure.
func ConfigError(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: ErrConfig}
}

// UnsatisfiableError marks err as an unsatisfiable-criteria failure.
func UnsatisfiableError(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: ErrUnsatisfiable}
}

// Validate checks the table-independent parts of spec against the
// algorithm's declared contract, in order: every criterion type in the
// policy must appear in info.Criteria; each Required parameter must be set
// ("k" at least 1, "l" at least 2, "policy" carrying one of info.Criteria);
// and an algorithm with RequiresHierarchies needs spec.Hierarchies. Every
// failure is a ConfigError, reported before any data is touched. A nil
// policy passes the criteria check: direct engine users that build a Spec
// by hand keep working without one.
func Validate(info Info, spec Spec) error {
	if spec.Policy != nil {
		for _, typ := range spec.Policy.CriterionTypes() {
			if !info.SupportsCriterion(typ) {
				return ConfigError(fmt.Errorf("%s: criterion %q is not supported (supported: %v)",
					info.Name, typ, info.Criteria))
			}
		}
	}
	for _, p := range info.Parameters {
		if !p.Required {
			continue
		}
		switch p.Name {
		case "k":
			if spec.K < 1 {
				return ConfigError(fmt.Errorf("%s: K must be at least 1 (got %d)", info.Name, spec.K))
			}
		case "l":
			if spec.L < 2 {
				return ConfigError(fmt.Errorf("%s requires L >= 2 (got %d)", info.Name, spec.L))
			}
		case "policy":
			criteria := strings.Join(info.Criteria, " or ")
			if spec.Policy == nil {
				return ConfigError(fmt.Errorf("%s: a policy with an %s criterion is required (flat parameters cannot express it)",
					info.Name, criteria))
			}
			if !slices.ContainsFunc(info.Criteria, spec.Policy.Has) {
				return ConfigError(fmt.Errorf("%s: the policy must carry an %s criterion", info.Name, criteria))
			}
		}
	}
	if info.RequiresHierarchies && spec.Hierarchies == nil {
		return ConfigError(fmt.Errorf("%s: algorithm requires generalization hierarchies", info.Name))
	}
	return nil
}

// validatedParams are the parameter names Validate knows how to check when
// an algorithm declares them Required.
var validatedParams = map[string]bool{"k": true, "l": true, "policy": true}

// FlatPolicy translates the deprecated flat parameters for this algorithm,
// the one rule both flat edges (the HTTP service and the CLI) apply: a
// declared Param.Default fills k or max_suppression only when the caller
// did not supply it (haveK, haveSuppression) and the algorithm declares that
// parameter; policy.FromFlatFor then splits the translation into what the
// algorithm enforces and what the release declares.
func (i Info) FlatPolicy(f policy.Flat, haveK, haveSuppression bool) (enforced, declared *policy.Policy, err error) {
	if p, ok := i.Param("k"); ok && !haveK {
		f.K = p.IntDefault(f.K)
	}
	if p, ok := i.Param("max_suppression"); ok && !haveSuppression {
		f.MaxSuppression = p.FloatDefault(f.MaxSuppression)
	}
	return policy.FromFlatFor(f, i.Criteria)
}

// registry is the process-wide algorithm registry, keyed by the name each
// algorithm's Describe reported at Register. Registration happens in
// package init functions (see internal/engine/all); lookups are read-only
// after that, but the mutex keeps concurrent test registration safe.
var (
	regMu       sync.RWMutex
	algorithms  = make(map[string]Algorithm)
	defaultName string
)

// Register adds an algorithm to the process-wide registry under its
// Describe().Name. It panics on a nil algorithm, an empty name, a
// duplicate, a second default, or a Required parameter Validate cannot
// check — all programmer errors at init time.
func Register(a Algorithm) {
	if a == nil {
		panic("engine: Register(nil)")
	}
	info := a.Describe()
	name := info.Name
	if name == "" {
		panic("engine: Register with empty name")
	}
	for _, p := range info.Parameters {
		if p.Required && !validatedParams[p.Name] {
			panic(fmt.Sprintf("engine: %s: required parameter %q has no validation rule", name, p.Name))
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := algorithms[name]; ok {
		panic(fmt.Sprintf("engine: algorithm %q registered twice", name))
	}
	algorithms[name] = a
	if info.Default {
		if defaultName != "" && defaultName != name {
			panic(fmt.Sprintf("engine: both %q and %q claim to be the default algorithm", defaultName, name))
		}
		defaultName = name
	}
}

// Lookup resolves a name (exact match, no folding or trimming) to its
// registered algorithm. The empty name resolves to the default algorithm.
func Lookup(name string) (Algorithm, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if name == "" {
		name = defaultName
	}
	a, ok := algorithms[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, name)
	}
	return a, nil
}

// Names returns every registered algorithm name in listing order: the
// default first, the rest alphabetically.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(algorithms))
	for name := range algorithms {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool {
		if (out[i] == defaultName) != (out[j] == defaultName) {
			return out[i] == defaultName
		}
		return out[i] < out[j]
	})
	return out
}

// Registered returns every registered algorithm in listing order.
func Registered() []Algorithm {
	names := Names()
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Algorithm, len(names))
	for i, name := range names {
		out[i] = algorithms[name]
	}
	return out
}

// Infos returns every registered algorithm's capability card in listing
// order — the payload of GET /v1/algorithms and the CLI listing.
func Infos() []Info {
	regs := Registered()
	out := make([]Info, len(regs))
	for i, a := range regs {
		out[i] = a.Describe()
	}
	return out
}

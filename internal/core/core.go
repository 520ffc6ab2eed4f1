// Package core is the public face of the PPDP library: it ties the privacy
// models, anonymization algorithms, utility metrics and risk measures into a
// single release pipeline. A caller configures an Anonymizer with the desired
// algorithm and privacy policy, calls Anonymize on a table, and receives
// a Release that contains the published data together with the measured
// privacy and utility properties, so the "trust but verify" step of the
// survey's methodology is built in.
//
// Long-running callers use AnonymizeContext: the context bounds the run
// (request deadlines, client disconnects) and is threaded into every
// algorithm, which polls it at its natural unit of work — Mondrian's worker
// pool per subtree, the lattice searches per node, Datafly per
// generalization round, and so on — while Config.Workers bounds internal
// parallelism so a server can share the machine across concurrent requests.
// The HTTP service in internal/server is the primary such caller.
//
// Algorithm dispatch is registry-driven: every algorithm is an engine
// adapter (see internal/engine) and core resolves names, validation and
// execution through the registry, so adding an algorithm package adds it to
// the whole pipeline.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"github.com/ppdp/ppdp/internal/algorithms/anatomy"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	_ "github.com/ppdp/ppdp/internal/engine/all" // register the built-in algorithms
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
	"github.com/ppdp/ppdp/internal/metrics"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/privacy"
)

// Algorithm selects the anonymization algorithm of a release.
type Algorithm string

// Names of the built-in algorithms. The authoritative list is the engine
// registry (see Algorithms); these constants are mnemonics for callers.
const (
	// Mondrian is multidimensional greedy partitioning (default).
	Mondrian Algorithm = "mondrian"
	// Datafly is greedy full-domain generalization with suppression.
	Datafly Algorithm = "datafly"
	// Incognito is an optimal full-domain lattice search.
	Incognito Algorithm = "incognito"
	// Samarati is binary lattice-height search with suppression.
	Samarati Algorithm = "samarati"
	// TopDown is top-down specialization from full generalization.
	TopDown Algorithm = "topdown"
	// KMember is greedy clustering anonymization.
	KMember Algorithm = "kmember"
	// Anatomy is l-diverse bucketization (no generalization).
	Anatomy Algorithm = "anatomy"
)

// ParseAlgorithm converts a string (CLI flag, config file) to an Algorithm
// via the engine registry; the empty string resolves to the default
// algorithm (Mondrian).
func ParseAlgorithm(s string) (Algorithm, error) {
	alg, err := engine.Lookup(s)
	if err != nil {
		return "", fmt.Errorf("core: unknown algorithm %q", s)
	}
	return Algorithm(alg.Name()), nil
}

// Algorithms lists every registered algorithm name, default first.
func Algorithms() []Algorithm {
	names := engine.Names()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

// Config describes one release.
type Config struct {
	// Algorithm selects the anonymizer; Mondrian when empty.
	Algorithm Algorithm
	// Policy declares the privacy criteria of the release. It is validated
	// strictly: a criterion the selected algorithm cannot enforce is a
	// configuration error. A nil Policy declares nothing, so the algorithm's
	// validation reports the parameter it is missing. The deprecated flat
	// parameters (k, l, t, ...) are translated into a policy by the callers
	// that still accept them (see policy.FromFlatFor).
	Policy *policy.Policy
	// Sensitive names the default sensitive attribute for the
	// attribute-linkage criteria; criteria that do not name their own fall
	// back to it, then to the schema's first sensitive column.
	Sensitive string
	// QuasiIdentifiers restricts the quasi-identifier; defaults to the
	// schema's quasi-identifier columns.
	QuasiIdentifiers []string
	// Hierarchies supplies generalization hierarchies (required by the
	// full-domain algorithms, optional for Mondrian/KMember recoding).
	Hierarchies *hierarchy.Set
	// StrictMondrian selects strict partitioning for Mondrian.
	StrictMondrian bool
	// Workers bounds the per-run parallelism: the algorithms' worker pools
	// (Mondrian's recursion, the lattice searches, and so on) and, via the
	// table handle (dataset.Table.SetScanWorkers), the chunked scan kernels
	// — GroupBy, snapshot encode, metric scans — used throughout the run. Zero
	// uses GOMAXPROCS; 1 forces a sequential run. Every path is
	// byte-identical for all worker counts. Long-running callers (the HTTP
	// service) set this once per process so concurrent requests share the
	// machine fairly.
	Workers int
	// Progress, when non-nil, receives (done, total) events as a run
	// advances, reported by the algorithm at the same per-unit sites where
	// it polls the context (see internal/engine). The delivered stream is
	// serialized and strictly increasing in done, so a plain closure — the
	// CLI's stderr progress line, a job manager's snapshot — needs no
	// locking. Per-run sinks are usually attached with WithProgress instead.
	Progress func(done, total int)
}

// ErrConfig is returned for invalid top-level configurations.
var ErrConfig = errors.New("core: invalid configuration")

// CriterionMeasurement reports the verification of one policy criterion
// against the released table.
type CriterionMeasurement struct {
	// Satisfied reports whether the release meets the criterion.
	Satisfied bool
	// Measured is the strongest value of the criterion's headline parameter
	// the release attains: the minimum class size for k-anonymity, the
	// maximum sensitive-value share for (α,k)-anonymity, the minimum
	// distinct count (or effective entropy l) for the diversity family, the
	// smallest satisfiable c for recursive (c,l)-diversity, and the maximum
	// per-class EMD for t-closeness.
	Measured float64
	// Target is the parameter the policy declared.
	Target float64
	// Sensitive is the resolved sensitive attribute the criterion was
	// checked against ("" for k-anonymity).
	Sensitive string
}

// Measurements reports the verified privacy level and utility of a release.
type Measurements struct {
	// Criteria reports every policy criterion's verification, keyed by
	// criterion type (e.g. "k-anonymity", "t-closeness"). Criteria whose
	// sensitive attribute is absent from the released schema are skipped,
	// mirroring the legacy scalar measurements.
	Criteria map[string]CriterionMeasurement
	// K is the smallest equivalence-class size of the release.
	K int
	// DistinctL is the smallest number of distinct sensitive values per
	// class (0 when no sensitive attribute is configured).
	DistinctL int
	// MaxEMD is the largest per-class earth mover's distance to the global
	// sensitive distribution (0 when no sensitive attribute is configured).
	MaxEMD float64
	// NCP is the normalized certainty penalty of the release.
	NCP float64
	// Discernibility is the discernibility metric of the release.
	Discernibility float64
	// ProsecutorMaxRisk is the maximum re-identification probability.
	ProsecutorMaxRisk float64
	// SuppressedRows is the number of records removed by the algorithm.
	SuppressedRows int
}

// Release is the outcome of an anonymization run.
type Release struct {
	// Table is the published microdata table (nil for Anatomy).
	Table *dataset.Table
	// QIT and ST are the Anatomy releases (nil for other algorithms).
	QIT *dataset.Table
	ST  *dataset.Table
	// Anatomy retains the full Anatomy result for query estimation.
	Anatomy *anatomy.Result
	// Algorithm echoes the algorithm used.
	Algorithm Algorithm
	// Policy echoes the canonical privacy policy the release was measured
	// against: the anonymizer's own, or the one Remeasure declared. Treat it
	// as immutable.
	Policy *policy.Policy
	// Node is the full-domain generalization node when applicable.
	Node []int
	// Measured reports the verified properties of the release.
	Measured Measurements
}

// Anonymizer runs a configured release pipeline.
type Anonymizer struct {
	cfg Config
	alg engine.Algorithm
	// pol is the canonical Config.Policy (nil only inside New, for a
	// configuration without one, which no adapter accepts): the engine
	// spec, the extra run criteria, the measurements, Verify and the policy
	// echo all derive from it.
	pol *policy.Policy
}

// New validates the configuration and returns an Anonymizer. The policy is
// canonicalized, and everything algorithm-specific (required parameters,
// hierarchies, supported criterion types) is delegated to the algorithm's
// own engine adapter, so core carries no per-algorithm knowledge.
func New(cfg Config) (*Anonymizer, error) {
	alg, err := engine.Lookup(string(cfg.Algorithm))
	if err != nil {
		return nil, fmt.Errorf("%w: unknown algorithm %q", ErrConfig, cfg.Algorithm)
	}
	cfg.Algorithm = Algorithm(alg.Name())
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: Workers=%d", ErrConfig, cfg.Workers)
	}
	a := &Anonymizer{cfg: cfg, alg: alg}
	if cfg.Policy != nil {
		if a.pol, err = cfg.Policy.Canonical(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
	}
	if err := alg.Validate(a.spec("", nil)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return a, nil
}

// spec maps the resolved policy and the run tuning onto the engine's
// algorithm-agnostic run specification. The sensitive attribute and the
// extra criteria are resolved per table at Anonymize time and empty during
// New-time validation.
func (a *Anonymizer) spec(sensitive string, extra []privacy.Criterion) engine.Spec {
	spec := engine.Spec{
		Sensitive:        sensitive,
		QuasiIdentifiers: a.cfg.QuasiIdentifiers,
		Hierarchies:      a.cfg.Hierarchies,
		Strict:           a.cfg.StrictMondrian,
		Workers:          a.cfg.Workers,
		Extra:            extra,
		Policy:           a.pol,
		Progress:         a.cfg.Progress,
	}
	if a.pol != nil {
		spec.K = a.pol.KAnonymityK()
		spec.L = a.pol.BucketL()
		spec.MaxSuppression = a.pol.SuppressionBudget()
	}
	return spec
}

// WithProgress returns a copy of the anonymizer whose runs report progress to
// sink; the receiver is unchanged. Executors that validate a configuration
// once and then attach a per-run sink (the jobs layer of the HTTP service)
// use this instead of rebuilding the Anonymizer.
func (a *Anonymizer) WithProgress(sink func(done, total int)) *Anonymizer {
	b := *a
	b.cfg.Progress = sink
	return &b
}

// Config returns a copy of the anonymizer's configuration.
func (a *Anonymizer) Config() Config { return a.cfg }

// sensitiveAttr resolves the sensitive attribute for a table.
func (a *Anonymizer) sensitiveAttr(t *dataset.Table) string {
	if a.cfg.Sensitive != "" {
		return a.cfg.Sensitive
	}
	names := t.Schema().SensitiveNames()
	if len(names) > 0 {
		return names[0]
	}
	return ""
}

// extraCriteria instantiates the policy's attribute-linkage criteria against
// the resolved sensitive attribute.
func (a *Anonymizer) extraCriteria(sensitive string) ([]privacy.Criterion, error) {
	if a.pol == nil {
		return nil, nil
	}
	out, err := a.pol.AttributeCriteria(sensitive)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return out, nil
}

// Policy returns the canonical privacy policy: what the pipeline enforces,
// measures, verifies and echoes. Treat it as immutable.
func (a *Anonymizer) Policy() *policy.Policy { return a.pol }

// Anonymize runs the configured pipeline on t with no cancellation; it is
// shorthand for AnonymizeContext with a background context.
func (a *Anonymizer) Anonymize(t *dataset.Table) (*Release, error) {
	return a.AnonymizeContext(context.Background(), t)
}

// AnonymizeContext runs the configured pipeline on t: direct identifiers are
// dropped, the algorithm's engine adapter is run, and the release is
// measured. The context bounds the run: every algorithm polls it at its
// natural unit of work (see internal/engine), so a canceled or timed-out
// request returns ctx.Err() instead of a release.
func (a *Anonymizer) AnonymizeContext(ctx context.Context, t *dataset.Table) (*Release, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	input, err := a.inputTable(t)
	if err != nil {
		return nil, err
	}
	// The chunked scan kernels (GroupBy, snapshot encode, metric scans) take
	// their worker bound from the table handle, so one setting here covers
	// every scan in the run without threading Workers through the seven
	// algorithm signatures. Every kernel is byte-identical for all worker
	// counts; see internal/parallel.
	input.SetScanWorkers(a.scanWorkers())
	sensitive := a.sensitiveAttr(input)
	extra, err := a.extraCriteria(sensitive)
	if err != nil {
		return nil, err
	}
	res, err := a.alg.Run(ctx, input, a.spec(sensitive, extra))
	if err != nil {
		return nil, err
	}

	release := &Release{
		Algorithm: a.cfg.Algorithm,
		Policy:    a.pol,
		Table:     res.Table,
		QIT:       res.QIT,
		ST:        res.ST,
		Node:      res.Node,
	}
	// Released tables inherit the scan-worker bound so the measurement
	// passes below — and any later report computed from the release — use
	// the same parallelism as the run itself.
	for _, rt := range []*dataset.Table{release.Table, release.QIT, release.ST} {
		if rt != nil {
			rt.SetScanWorkers(a.scanWorkers())
		}
	}
	release.Measured.SuppressedRows = res.SuppressedRows
	if anat, ok := res.Extra.(*anatomy.Result); ok {
		release.Anatomy = anat
	}

	// Gate between the algorithm and the measurement phase so a request
	// canceled right at the boundary skips the grouping and metric passes.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if release.Table != nil {
		m, err := a.measure(input, release.Table, sensitive)
		if err != nil {
			return nil, err
		}
		m.SuppressedRows = release.Measured.SuppressedRows
		release.Measured = *m
	}
	return release, nil
}

// inputTable prepares the run input: direct identifiers are dropped, as
// always — except the id column an m-invariance criterion tracks records by.
// Sequential re-publication is the one pipeline that must see a
// (pseudonymous) per-record identity; the republish algorithm publishes it
// only in the QIT's audit column, never generalizes over it.
func (a *Anonymizer) inputTable(t *dataset.Table) (*dataset.Table, error) {
	keepID := ""
	if a.pol != nil {
		if c, ok := a.pol.Find(policy.MInvariance); ok {
			keepID = c.ID
		}
	}
	if keepID == "" {
		return t.DropIdentifiers()
	}
	var keep []string
	for _, attr := range t.Schema().Attributes() {
		if attr.Kind != dataset.Identifier || attr.Name == keepID {
			keep = append(keep, attr.Name)
		}
	}
	return t.Project(keep...)
}

// scanWorkers resolves Config.Workers for the table-scan kernels with the
// same semantics the algorithms use: zero means GOMAXPROCS, one forces
// sequential scans.
func (a *Anonymizer) scanWorkers() int {
	if w := a.cfg.Workers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// measure verifies the privacy level and utility of a microdata release.
func (a *Anonymizer) measure(original, released *dataset.Table, sensitive string) (*Measurements, error) {
	classes, err := released.GroupBy(a.quasiIdentifiers(released)...)
	if err != nil {
		return nil, err
	}
	m := &Measurements{K: privacy.MeasureK(classes)}
	if err := measurePolicy(m, released, classes, sensitive, a.pol, false); err != nil {
		return nil, err
	}
	// Metric failures are real failures: a release whose utility cannot be
	// measured must not report a perfect 0.0, so the errors propagate instead
	// of being dropped.
	ncp, err := metrics.NCP(original, released, a.cfg.Hierarchies)
	if err != nil {
		return nil, fmt.Errorf("core: NCP: %w", err)
	}
	m.NCP = ncp
	dm, err := metrics.Discernibility(released, original.Len())
	if err != nil {
		return nil, fmt.Errorf("core: discernibility: %w", err)
	}
	m.Discernibility = dm
	// Prosecutor risk over the same quasi-identifier the release was built
	// for (the schema may contain further QI columns the caller chose not to
	// anonymize; risk.MeasureReidentification covers that stricter view).
	if m.K > 0 {
		m.ProsecutorMaxRisk = 1 / float64(m.K)
	}
	return m, nil
}

// Remeasure re-verifies rel, a release this anonymizer produced, against
// declared instead of the anonymizer's own policy, and makes declared the
// release's policy. It serves callers whose request declares more than the
// algorithm enforces — the deprecated flat parameters translated by
// policy.FromFlatFor — so a criterion the run ignored is still measured and
// reported ("trust but verify"). orderedEMD selects the ordered ground
// distance for the MaxEMD summary when declared has no t-closeness
// criterion of its own. The policy-independent measurements are kept.
func (a *Anonymizer) Remeasure(rel *Release, declared *policy.Policy, orderedEMD bool) error {
	rel.Policy = declared
	if rel.Table == nil {
		return nil
	}
	classes, err := rel.Table.GroupBy(a.quasiIdentifiers(rel.Table)...)
	if err != nil {
		return err
	}
	return measurePolicy(&rel.Measured, rel.Table, classes, a.sensitiveAttr(rel.Table), declared, orderedEMD)
}

// quasiIdentifiers resolves the quasi-identifier a release was built for.
func (a *Anonymizer) quasiIdentifiers(released *dataset.Table) []string {
	if len(a.cfg.QuasiIdentifiers) > 0 {
		return a.cfg.QuasiIdentifiers
	}
	return released.Schema().QuasiIdentifierNames()
}

// measurePolicy fills the measurements that depend on the sensitive
// attribute and the policy: the distinct-l and max-EMD summaries (ordered
// EMD when pol's t-closeness criterion says so, orderedEMD otherwise) and
// one verification entry per policy criterion, keyed by criterion type.
// Criteria whose sensitive attribute is not a column of the released table
// are skipped, mirroring the summaries.
func measurePolicy(m *Measurements, released *dataset.Table, classes []dataset.EquivalenceClass, sensitive string, pol *policy.Policy, orderedEMD bool) error {
	if pol != nil {
		if tc, ok := pol.Find(policy.TCloseness); ok {
			orderedEMD = tc.Ordered
		}
	}
	if sensitive != "" && released.Schema().Has(sensitive) {
		l, err := privacy.MeasureDistinctL(released, classes, sensitive)
		if err != nil {
			return err
		}
		m.DistinctL = l
		emd, err := privacy.MeasureMaxEMD(released, classes, sensitive, orderedEMD)
		if err != nil {
			return err
		}
		m.MaxEMD = emd
	}
	m.Criteria = nil
	if pol == nil || len(pol.Criteria) == 0 {
		return nil
	}
	m.Criteria = make(map[string]CriterionMeasurement, len(pol.Criteria))
	for _, c := range pol.ResolveSensitive(sensitive).Criteria {
		entry := CriterionMeasurement{Sensitive: c.Sensitive}
		if c.Type != policy.KAnonymity {
			if c.Sensitive == "" || !released.Schema().Has(c.Sensitive) {
				continue
			}
		}
		var err error
		switch c.Type {
		case policy.KAnonymity:
			entry.Target = float64(c.K)
			entry.Measured = float64(privacy.MeasureK(classes))
			entry.Satisfied = entry.Measured >= entry.Target
		case policy.AlphaKAnonymity:
			entry.Target = c.Alpha
			entry.Measured, err = privacy.MeasureMaxAlpha(released, classes, c.Sensitive)
			entry.Satisfied = err == nil && entry.Measured <= c.Alpha && privacy.MeasureK(classes) >= c.K
		case policy.DistinctLDiversity:
			entry.Target = c.L
			var l int
			l, err = privacy.MeasureDistinctL(released, classes, c.Sensitive)
			entry.Measured = float64(l)
			entry.Satisfied = err == nil && entry.Measured >= c.L
		case policy.EntropyLDiversity:
			entry.Target = c.L
			var h float64
			h, err = privacy.MeasureEntropyL(released, classes, c.Sensitive)
			// Report the effective l (e^H), directly comparable to the target.
			entry.Measured = math.Exp(h)
			entry.Satisfied = err == nil && h >= math.Log(c.L)-1e-12
		case policy.RecursiveCLDiversity:
			entry.Target = c.C
			entry.Measured, err = privacy.MeasureRecursiveC(released, classes, int(c.L), c.Sensitive)
			entry.Satisfied = err == nil && entry.Measured < c.C
		case policy.TCloseness:
			entry.Target = c.T
			entry.Measured, err = privacy.MeasureMaxEMD(released, classes, c.Sensitive, c.Ordered)
			entry.Satisfied = err == nil && entry.Measured <= c.T+1e-12
		default:
			continue
		}
		if err != nil {
			return fmt.Errorf("core: measure %s: %w", c.Type, err)
		}
		m.Criteria[c.Type] = entry
	}
	return nil
}

// Verify re-checks the configured privacy criteria against a microdata
// release and returns the name of the first violated criterion (empty when
// all hold).
func (a *Anonymizer) Verify(released *dataset.Table) (bool, string, error) {
	sensitive := a.sensitiveAttr(released)
	extra, err := a.extraCriteria(sensitive)
	if err != nil {
		return false, "", err
	}
	classes, err := released.GroupBy(a.quasiIdentifiers(released)...)
	if err != nil {
		return false, "", err
	}
	k := 1
	if a.pol != nil {
		k = max(a.pol.KAnonymityK(), 1)
	}
	criteria := append([]privacy.Criterion{privacy.KAnonymity{K: k}}, extra...)
	return privacy.CheckAll(released, classes, criteria...)
}

// FullDomainPrecision is a convenience that computes Sweeney's precision for
// a full-domain release node produced by Datafly, Samarati, Incognito or
// TopDown under the anonymizer's hierarchies.
func (a *Anonymizer) FullDomainPrecision(node []int, qi []string) (float64, error) {
	if a.cfg.Hierarchies == nil {
		return 0, fmt.Errorf("%w: precision requires hierarchies", ErrConfig)
	}
	maxLevels, err := a.cfg.Hierarchies.MaxLevels(qi)
	if err != nil {
		return 0, err
	}
	return metrics.GeneralizationPrecision(node, maxLevels)
}

// LatticeSize reports how many full-domain recodings exist for the given
// quasi-identifier under the anonymizer's hierarchies — a quick way to judge
// whether an exhaustive lattice search is feasible.
func (a *Anonymizer) LatticeSize(qi []string) (int, error) {
	if a.cfg.Hierarchies == nil {
		return 0, fmt.Errorf("%w: lattice size requires hierarchies", ErrConfig)
	}
	maxLevels, err := a.cfg.Hierarchies.MaxLevels(qi)
	if err != nil {
		return 0, err
	}
	lat, err := lattice.New(qi, maxLevels)
	if err != nil {
		return 0, err
	}
	return lat.Size(), nil
}

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
// adapter (see internal/engine), core resolves names and execution through
// the registry, and engine.Validate checks a configuration against the
// algorithm's declared metadata, so adding an algorithm package adds it to
// the whole pipeline.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	_ "github.com/ppdp/ppdp/internal/engine/all" // register the built-in algorithms
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/metrics"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/privacy"
)

// Algorithm selects the anonymization algorithm of a release.
type Algorithm string

// Names of the built-in algorithms. The authoritative list is the engine
// registry (see engine.Names); these constants are mnemonics for callers.
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
	return Algorithm(alg.Describe().Name), nil
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

// Measure is a measured value. It encodes as a JSON number, or as null when
// it is not finite (recursive (c,l)-diversity measures +Inf on a class with
// fewer than l sensitive values), which a JSON number cannot carry; null
// decodes as NaN. Release reports and the durable journal share this
// encoding.
type Measure float64

// MarshalJSON implements json.Marshaler.
func (m Measure) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(m), 0) || math.IsNaN(float64(m)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(m))
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Measure) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*m = Measure(math.NaN())
		return nil
	}
	return json.Unmarshal(b, (*float64)(m))
}

// CriterionMeasurement reports the verification of one policy criterion
// against the released table.
type CriterionMeasurement struct {
	// Satisfied, Measured and Target are the privacy.Verdict of the
	// criterion's model — the verdict the algorithms enforce. See each
	// model's Evaluate for what it measures and how Satisfied follows.
	Satisfied bool
	Measured  Measure
	Target    Measure
	// Sensitive is the resolved sensitive attribute the criterion was
	// checked against ("" for k-anonymity).
	Sensitive string
}

// Measurements reports the verified privacy level and utility of a release.
type Measurements struct {
	// Criteria reports every policy criterion's verification, keyed by
	// criterion type (e.g. "k-anonymity", "t-closeness"). Criteria whose
	// sensitive attribute is absent from the released schema are skipped,
	// mirroring the legacy scalar measurements. Like K, the criteria group
	// the release by the quasi-identifier it was built for.
	Criteria map[string]CriterionMeasurement
	// K is the smallest equivalence-class size of the release, over the
	// quasi-identifier the release was built for (Config.QuasiIdentifiers,
	// or every schema QI column when that is empty).
	K int
	// DistinctL is the smallest number of distinct sensitive values per
	// class (0 when no sensitive attribute is configured), over the same
	// classes as K.
	DistinctL int
	// MaxEMD is the largest per-class earth mover's distance to the global
	// sensitive distribution (0 when no sensitive attribute is configured),
	// over the same classes as K.
	MaxEMD Measure
	// NCP is the normalized certainty penalty of the release over every QI
	// column of the schema, not only the quasi-identifier the release was
	// built for: columns a run left unrecoded count as exact.
	NCP Measure
	// Discernibility is the discernibility metric of the release over the
	// classes of every QI column of the schema. On a run over a QI subset
	// the other columns split its classes further, so it can fall below k·N.
	Discernibility Measure
	// ProsecutorMaxRisk is the maximum re-identification probability, 1/K:
	// taken over the same quasi-identifier as K.
	ProsecutorMaxRisk Measure
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
	// configuration without one, which engine.Validate rejects for every
	// algorithm): the engine spec, the extra run criteria, the
	// measurements, Verify and the policy echo all derive from it.
	pol *policy.Policy
}

// New validates the configuration and returns an Anonymizer. The policy is
// canonicalized (which rejects out-of-range criteria, such as m < 2 or a
// missing id column for m-invariance), and everything algorithm-specific
// (required parameters, hierarchies, supported criterion types) is checked
// by engine.Validate against the algorithm's declared metadata, so core
// carries no per-algorithm knowledge.
func New(cfg Config) (*Anonymizer, error) {
	alg, err := engine.Lookup(string(cfg.Algorithm))
	if err != nil {
		return nil, fmt.Errorf("%w: unknown algorithm %q", ErrConfig, cfg.Algorithm)
	}
	info := alg.Describe()
	cfg.Algorithm = Algorithm(info.Name)
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: Workers=%d", ErrConfig, cfg.Workers)
	}
	a := &Anonymizer{cfg: cfg, alg: alg}
	if cfg.Policy != nil {
		if a.pol, err = cfg.Policy.Canonical(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
	}
	if err := engine.Validate(info, a.spec("", nil)); err != nil {
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

	// Gate between the algorithm and the measurement phase so a request
	// canceled right at the boundary skips the grouping and metric passes.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if release.Table != nil {
		m, err := a.measure(input, release.Table, res.Groups, sensitive)
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
	c, ok := a.pol.Find(policy.MInvariance)
	if !ok {
		return t.DropIdentifiers()
	}
	var keep []string
	for _, attr := range t.Schema().Attributes() {
		if attr.Kind != dataset.Identifier || attr.Name == c.ID {
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
// groups is the run's partition of the released rows (engine.Result.Groups):
// when set, the equivalence classes are derived from it instead of
// regrouping the rows, with the same result.
func (a *Anonymizer) measure(original, released *dataset.Table, groups [][]int, sensitive string) (*Measurements, error) {
	qi := a.quasiIdentifiers(released)
	var classes []dataset.EquivalenceClass
	var err error
	if groups != nil {
		classes, err = released.GroupByPartition(groups, qi...)
	} else {
		classes, err = released.GroupBy(qi...)
	}
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
	m.NCP = Measure(ncp)
	// Discernibility groups by every QI column of the schema; when that is
	// the measured quasi-identifier, its classes are the ones above.
	if schemaQI := released.Schema().QuasiIdentifierNames(); len(schemaQI) > 0 && sameColumns(qi, schemaQI) {
		m.Discernibility = Measure(metrics.DiscernibilityOf(classes, original.Len()))
	} else {
		dm, err := metrics.Discernibility(released, original.Len())
		if err != nil {
			return nil, fmt.Errorf("core: discernibility: %w", err)
		}
		m.Discernibility = Measure(dm)
	}
	// Prosecutor risk over the same quasi-identifier the release was built
	// for (the schema may contain further QI columns the caller chose not to
	// anonymize; risk.MeasureReidentification covers that stricter view).
	if m.K > 0 {
		m.ProsecutorMaxRisk = Measure(1 / float64(m.K))
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

// sameColumns reports whether a and b list the same columns, in any order.
func sameColumns(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
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
	if released.Schema().Has(sensitive) {
		l, err := privacy.MeasureDistinctL(released, classes, sensitive)
		if err != nil {
			return err
		}
		m.DistinctL = l
		emd, err := privacy.MeasureMaxEMD(released, classes, sensitive, orderedEMD)
		if err != nil {
			return err
		}
		m.MaxEMD = Measure(emd)
	}
	m.Criteria = nil
	if pol == nil || len(pol.Criteria) == 0 {
		return nil
	}
	m.Criteria = make(map[string]CriterionMeasurement, len(pol.Criteria))
	for _, c := range pol.ResolveSensitive(sensitive).Criteria {
		ck := c.Checker()
		if ck == nil || (c.Type != policy.KAnonymity && !released.Schema().Has(c.Sensitive)) {
			continue
		}
		v, err := ck.Evaluate(released, classes)
		if err != nil {
			return fmt.Errorf("core: measure %s: %w", c.Type, err)
		}
		m.Criteria[c.Type] = CriterionMeasurement{Satisfied: v.Satisfied, Measured: Measure(v.Measured), Target: Measure(v.Target), Sensitive: c.Sensitive}
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
	criteria := append([]privacy.Criterion{privacy.KAnonymity{K: max(a.pol.KAnonymityK(), 1)}}, extra...)
	return privacy.CheckAll(released, classes, criteria...)
}

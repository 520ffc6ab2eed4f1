package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/parallel"
)

// Condition is one predicate of a count query.
type Condition struct {
	// Attribute names the column the condition applies to.
	Attribute string
	// Equals matches categorical values exactly; it is ignored when IsRange
	// is set.
	Equals string
	// IsRange selects a numeric range predicate [Lo, Hi).
	IsRange bool
	Lo, Hi  float64
}

// String renders the condition for experiment output.
func (c Condition) String() string {
	if c.IsRange {
		return fmt.Sprintf("%s in [%g,%g)", c.Attribute, c.Lo, c.Hi)
	}
	return fmt.Sprintf("%s = %s", c.Attribute, c.Equals)
}

// CountQuery is a conjunctive count query over a table.
type CountQuery struct {
	Conditions []Condition
}

// String renders the query for experiment output.
func (q CountQuery) String() string {
	parts := make([]string, len(q.Conditions))
	for i, c := range q.Conditions {
		parts[i] = c.String()
	}
	return "COUNT(*) WHERE " + strings.Join(parts, " AND ")
}

// ExactCount evaluates the query on a table of raw (ungeneralized) values.
// Every condition becomes a per-code mask over its column's dictionary —
// equality marks the one code holding the value, a range the codes whose
// numeric reading falls in it — so the per-row loop only indexes masks by
// dictionary codes and no cell is parsed or compared as a string.
func ExactCount(t *dataset.Table, q CountQuery) (int, error) {
	type matcher struct {
		codes []uint32
		mask  []bool
	}
	matchers := make([]matcher, len(q.Conditions))
	impossible := false
	for i, c := range q.Conditions {
		cc, err := t.CodedColumnByName(c.Attribute)
		if err != nil {
			return 0, err
		}
		mask := make([]bool, cc.Cardinality())
		hit := false
		if c.IsRange {
			st := cc.Stats()
			for code, f := range st.Num {
				mask[code] = st.Parsed[code] && f >= c.Lo && f < c.Hi
				hit = hit || mask[code]
			}
		} else if code, ok := cc.Code(c.Equals); ok {
			mask[code], hit = true, true
		}
		// A condition no value meets makes the conjunctive query unmatchable.
		// Keep resolving the remaining conditions so unknown attributes
		// still error, then skip the scan.
		impossible = impossible || !hit
		matchers[i] = matcher{codes: cc.Codes, mask: mask}
	}
	if impossible {
		return 0, nil
	}
	// Contiguous row chunks count matches on up to ScanWorkers goroutines;
	// the integer partials sum exactly, so the count is identical for every
	// worker count. The matchers are read-only once built.
	return parallel.Fold(t.Len(), t.ScanWorkers(), 0,
		func(lo, hi int) (int, error) {
			count := 0
		rows:
			for r := lo; r < hi; r++ {
				for _, m := range matchers {
					if !m.mask[m.codes[r]] {
						continue rows
					}
				}
				count++
			}
			return count, nil
		},
		func(a, b int) (int, error) { return a + b, nil })
}

// matchesExact is the single-cell reference semantics of ExactCount's
// predicates, kept for tests and documentation.
func matchesExact(value string, c Condition) bool {
	if c.IsRange {
		f, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return false
		}
		return f >= c.Lo && f < c.Hi
	}
	return value == c.Equals
}

// EstimateCount evaluates the query on a generalized release under the
// uniformity assumption: a generalized cell contributes the fraction of its
// span that overlaps the predicate. Intervals use length overlap; categorical
// generalizations use the fraction of covered leaves that satisfy the
// predicate (1/groupSize for equality predicates); suppressed cells
// contribute the predicate's selectivity over the original domain.
// EstimateCount memoizes the per-value match probability over each column's
// dictionary: a released column holds few distinct (generalized) values, so
// the interval parsing and hierarchy walks run once per distinct value and
// the per-row loop is pure table lookups.
func EstimateCount(released *dataset.Table, q CountQuery, hs *hierarchy.Set) (float64, error) {
	codes := make([][]uint32, len(q.Conditions))
	probs := make([][]float64, len(q.Conditions))
	for i, c := range q.Conditions {
		idx, err := released.Schema().Index(c.Attribute)
		if err != nil {
			return 0, err
		}
		cc, err := released.CodedColumn(idx)
		if err != nil {
			return 0, err
		}
		codes[i] = cc.Codes
		probs[i] = make([]float64, cc.Cardinality())
		h := lookup(hs, c.Attribute)
		for code, v := range cc.Dict {
			probs[i][code] = matchProbability(v, c, h)
		}
	}
	total := 0.0
	for r := 0; r < released.Len(); r++ {
		p := 1.0
		for i := range probs {
			p *= probs[i][codes[i][r]]
			if p == 0 {
				break
			}
		}
		total += p
	}
	return total, nil
}

func lookup(hs *hierarchy.Set, attr string) hierarchy.Hierarchy {
	if hs == nil || !hs.Has(attr) {
		return nil
	}
	h, err := hs.Get(attr)
	if err != nil {
		return nil
	}
	return h
}

// matchProbability estimates the probability that a record whose released
// value is `value` satisfies the condition, assuming uniformity within the
// generalized group.
func matchProbability(value string, c Condition, h hierarchy.Hierarchy) float64 {
	if c.IsRange {
		// Exact numeric value.
		if f, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil {
			if f >= c.Lo && f < c.Hi {
				return 1
			}
			return 0
		}
		if lo, hi, ok := hierarchy.ParseInterval(value); ok && hi > lo {
			overlap := math.Min(hi, c.Hi) - math.Max(lo, c.Lo)
			if overlap <= 0 {
				return 0
			}
			return overlap / (hi - lo)
		}
		if value == dataset.SuppressedValue {
			if ih, ok := h.(*hierarchy.IntervalHierarchy); ok {
				span := ih.Max() - ih.Min()
				if span <= 0 {
					return 0
				}
				overlap := math.Min(ih.Max()+1, c.Hi) - math.Max(ih.Min(), c.Lo)
				if overlap <= 0 {
					return 0
				}
				return overlap / (span + 1)
			}
			return 0.5
		}
		return 0
	}

	// Equality predicate.
	if value == c.Equals {
		return 1
	}
	if value == dataset.SuppressedValue {
		if h != nil && h.DomainSize() > 0 {
			return 1 / float64(h.DomainSize())
		}
		return 0
	}
	if strings.HasPrefix(value, "{") && strings.HasSuffix(value, "}") {
		parts := strings.Split(value[1:len(value)-1], ",")
		for _, p := range parts {
			if strings.TrimSpace(p) == c.Equals {
				return 1 / float64(len(parts))
			}
		}
		return 0
	}
	if ch, ok := h.(*hierarchy.CategoryHierarchy); ok && ch.Contains(c.Equals) {
		// Does the released value generalize the queried leaf?
		for level := 1; level <= ch.MaxLevel(); level++ {
			g, err := ch.Generalize(c.Equals, level)
			if err != nil {
				return 0
			}
			if g == value {
				size := ch.GroupSizeOfGeneralized(value)
				if size <= 0 {
					return 0
				}
				return 1 / float64(size)
			}
		}
	}
	return 0
}

// RelativeError returns |estimate - truth| / max(truth, sanity), the standard
// workload-error measure; sanity (usually a small fraction of the table)
// prevents division blow-ups on very selective queries.
func RelativeError(estimate float64, truth int, sanity float64) float64 {
	denom := math.Max(float64(truth), sanity)
	if denom == 0 {
		return 0
	}
	return math.Abs(estimate-float64(truth)) / denom
}

// Workload is a set of count queries with summary helpers.
type Workload struct {
	Queries []CountQuery
}

// WorkloadConfig controls random workload generation.
type WorkloadConfig struct {
	// Queries is the number of queries to generate.
	Queries int
	// Attributes are the candidate predicate attributes.
	Attributes []string
	// Sensitive optionally adds an equality predicate on this sensitive
	// attribute to every query (for the Anatomy-style experiments that ask
	// "how many young males have HIV").
	Sensitive string
	// PredicatesPerQuery is the number of QI predicates per query (default 2).
	PredicatesPerQuery int
	// Rng drives the random choices.
	Rng *rand.Rand
}

// GenerateWorkload draws random conjunctive count queries against the
// original table: numeric attributes get random ranges covering 10–50% of
// their domain, categorical attributes get random equality predicates.
func GenerateWorkload(original *dataset.Table, cfg WorkloadConfig) (*Workload, error) {
	if cfg.Queries <= 0 {
		return nil, fmt.Errorf("metrics: workload needs a positive query count, got %d", cfg.Queries)
	}
	attrs := cfg.Attributes
	if len(attrs) == 0 {
		attrs = original.Schema().QuasiIdentifierNames()
	}
	if len(attrs) == 0 {
		return nil, ErrNoQuasiIdentifiers
	}
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	per := cfg.PredicatesPerQuery
	if per <= 0 {
		per = 2
	}
	if per > len(attrs) {
		per = len(attrs)
	}

	type attrInfo struct {
		name    string
		numeric bool
		lo, hi  float64
		domain  []string
	}
	infos := make([]attrInfo, 0, len(attrs))
	for _, a := range attrs {
		attr, err := original.Schema().ByName(a)
		if err != nil {
			return nil, err
		}
		ai := attrInfo{name: a, numeric: attr.Type == dataset.Numeric}
		if ai.numeric {
			lo, hi, err := original.NumericRange(a)
			if err != nil {
				return nil, err
			}
			ai.lo, ai.hi = lo, hi
		} else {
			dom, err := original.Domain(a)
			if err != nil {
				return nil, err
			}
			ai.domain = dom
		}
		infos = append(infos, ai)
	}
	var sensDomain []string
	if cfg.Sensitive != "" {
		dom, err := original.Domain(cfg.Sensitive)
		if err != nil {
			return nil, err
		}
		sensDomain = dom
	}

	w := &Workload{}
	for qi := 0; qi < cfg.Queries; qi++ {
		perm := rng.Perm(len(infos))[:per]
		sort.Ints(perm)
		q := CountQuery{}
		for _, idx := range perm {
			ai := infos[idx]
			if ai.numeric {
				span := ai.hi - ai.lo
				width := span * (0.1 + 0.4*rng.Float64())
				start := ai.lo + rng.Float64()*(span-width)
				q.Conditions = append(q.Conditions, Condition{
					Attribute: ai.name, IsRange: true, Lo: math.Floor(start), Hi: math.Ceil(start + width),
				})
			} else {
				q.Conditions = append(q.Conditions, Condition{
					Attribute: ai.name, Equals: ai.domain[rng.Intn(len(ai.domain))],
				})
			}
		}
		if cfg.Sensitive != "" && len(sensDomain) > 0 {
			q.Conditions = append(q.Conditions, Condition{
				Attribute: cfg.Sensitive, Equals: sensDomain[rng.Intn(len(sensDomain))],
			})
		}
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}

// ErrorSummary aggregates per-query relative errors.
type ErrorSummary struct {
	Mean   float64
	Median float64
	Max    float64
}

// Summarize computes mean, median and max of the given errors.
func Summarize(errs []float64) ErrorSummary {
	if len(errs) == 0 {
		return ErrorSummary{}
	}
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	total := 0.0
	for _, e := range sorted {
		total += e
	}
	return ErrorSummary{
		Mean:   total / float64(len(sorted)),
		Median: sorted[len(sorted)/2],
		Max:    sorted[len(sorted)-1],
	}
}

// EvaluateWorkload runs every query exactly on the original table and
// approximately on the released table, returning the relative errors. The
// sanity bound is 0.1% of the original table (at least 1).
func EvaluateWorkload(original, released *dataset.Table, w *Workload, hs *hierarchy.Set) ([]float64, error) {
	sanity := math.Max(float64(original.Len())*0.001, 1)
	errs := make([]float64, 0, len(w.Queries))
	for _, q := range w.Queries {
		truth, err := ExactCount(original, q)
		if err != nil {
			return nil, err
		}
		est, err := EstimateCount(released, q, hs)
		if err != nil {
			return nil, err
		}
		errs = append(errs, RelativeError(est, truth, sanity))
	}
	return errs, nil
}

// Package privacy implements the privacy models (release criteria) cataloged
// by the PPDP survey: k-anonymity and (α,k)-anonymity against record linkage,
// the l-diversity family and t-closeness against attribute linkage, and
// δ-presence against table linkage. Each model is both *checkable* (does a
// release satisfy it?) and *measurable* (what is the strongest parameter the
// release satisfies?), because the algorithms use checks while the experiment
// harness reports measurements.
package privacy

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/ppdp/ppdp/internal/dataset"
)

// Common errors.
var (
	// ErrParameter is returned for non-sensical model parameters
	// (k < 1, l < 1, t outside [0,1], ...).
	ErrParameter = errors.New("privacy: invalid model parameter")
	// ErrNoClasses is returned when a model is checked against an empty
	// release.
	ErrNoClasses = errors.New("privacy: release has no equivalence classes")
)

// Criterion is a privacy model that can be checked against a released table
// partitioned into quasi-identifier equivalence classes.
type Criterion interface {
	// Name returns a short human-readable description such as "5-anonymity".
	Name() string
	// Check reports whether the release satisfies the criterion. The classes
	// must be the quasi-identifier equivalence classes of t.
	Check(t *dataset.Table, classes []dataset.EquivalenceClass) (bool, error)
}

// CheckAll evaluates all criteria and returns true only if every one is
// satisfied. The first dissatisfied criterion's name is returned for
// diagnostics.
func CheckAll(t *dataset.Table, classes []dataset.EquivalenceClass, criteria ...Criterion) (bool, string, error) {
	for _, c := range criteria {
		ok, err := c.Check(t, classes)
		if err != nil {
			return false, c.Name(), err
		}
		if !ok {
			return false, c.Name(), nil
		}
	}
	return true, "", nil
}

// ---------------------------------------------------------------------------
// k-anonymity
// ---------------------------------------------------------------------------

// KAnonymity requires every equivalence class to contain at least K records,
// bounding record-linkage (re-identification) probability by 1/K.
type KAnonymity struct {
	K int
}

// Name implements Criterion.
func (k KAnonymity) Name() string { return fmt.Sprintf("%d-anonymity", k.K) }

// Check implements Criterion.
func (k KAnonymity) Check(_ *dataset.Table, classes []dataset.EquivalenceClass) (bool, error) {
	if k.K < 1 {
		return false, fmt.Errorf("%w: k = %d", ErrParameter, k.K)
	}
	if len(classes) == 0 {
		return false, ErrNoClasses
	}
	return dataset.MinClassSize(classes) >= k.K, nil
}

// MeasureK returns the largest k for which the release is k-anonymous, i.e.
// the minimum equivalence-class size (0 for an empty release).
func MeasureK(classes []dataset.EquivalenceClass) int {
	return dataset.MinClassSize(classes)
}

// ---------------------------------------------------------------------------
// (α, k)-anonymity
// ---------------------------------------------------------------------------

// AlphaKAnonymity augments k-anonymity with a cap on the relative frequency
// of every sensitive value inside each class: no value may account for more
// than Alpha of a class. It is a simple guard against near-homogeneous
// classes.
type AlphaKAnonymity struct {
	K         int
	Alpha     float64
	Sensitive string
}

// Name implements Criterion.
func (a AlphaKAnonymity) Name() string {
	return fmt.Sprintf("(%.2f,%d)-anonymity[%s]", a.Alpha, a.K, a.Sensitive)
}

// Check implements Criterion.
func (a AlphaKAnonymity) Check(t *dataset.Table, classes []dataset.EquivalenceClass) (bool, error) {
	if a.K < 1 || a.Alpha <= 0 || a.Alpha > 1 {
		return false, fmt.Errorf("%w: alpha=%v k=%d", ErrParameter, a.Alpha, a.K)
	}
	if len(classes) == 0 {
		return false, ErrNoClasses
	}
	if dataset.MinClassSize(classes) < a.K {
		return false, nil
	}
	ok := true
	err := eachClass(t, classes, a.Sensitive, func(h *classHist) bool {
		ok = h.maxShare() <= a.Alpha
		return ok
	})
	return ok && err == nil, err
}

// MeasureMaxAlpha returns the largest relative frequency any sensitive value
// reaches inside one equivalence class — the smallest α for which the release
// is (α,k)-anonymous (given it is k-anonymous).
func MeasureMaxAlpha(t *dataset.Table, classes []dataset.EquivalenceClass, sensitive string) (float64, error) {
	max := 0.0
	err := eachClass(t, classes, sensitive, func(h *classHist) bool {
		if f := h.maxShare(); f > max {
			max = f
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return max, nil
}

// ---------------------------------------------------------------------------
// l-diversity family
// ---------------------------------------------------------------------------

// DistinctLDiversity requires every equivalence class to contain at least L
// distinct values of the sensitive attribute.
type DistinctLDiversity struct {
	L         int
	Sensitive string
}

// Name implements Criterion.
func (d DistinctLDiversity) Name() string {
	return fmt.Sprintf("distinct %d-diversity[%s]", d.L, d.Sensitive)
}

// Check implements Criterion.
func (d DistinctLDiversity) Check(t *dataset.Table, classes []dataset.EquivalenceClass) (bool, error) {
	if d.L < 1 {
		return false, fmt.Errorf("%w: l = %d", ErrParameter, d.L)
	}
	if len(classes) == 0 {
		return false, ErrNoClasses
	}
	l, err := MeasureDistinctL(t, classes, d.Sensitive)
	if err != nil {
		return false, err
	}
	return l >= d.L, nil
}

// MeasureDistinctL returns the minimum number of distinct sensitive values
// over all classes — the strongest distinct l-diversity the release satisfies.
func MeasureDistinctL(t *dataset.Table, classes []dataset.EquivalenceClass, sensitive string) (int, error) {
	min := math.MaxInt
	err := eachClass(t, classes, sensitive, func(h *classHist) bool {
		if h.distinct < min {
			min = h.distinct
		}
		return true
	})
	if err != nil || len(classes) == 0 {
		return 0, err
	}
	return min, nil
}

// EntropyLDiversity requires the entropy of the sensitive distribution in
// every class to be at least log(L).
type EntropyLDiversity struct {
	L         float64
	Sensitive string
}

// Name implements Criterion.
func (e EntropyLDiversity) Name() string {
	return fmt.Sprintf("entropy %.2f-diversity[%s]", e.L, e.Sensitive)
}

// Check implements Criterion.
func (e EntropyLDiversity) Check(t *dataset.Table, classes []dataset.EquivalenceClass) (bool, error) {
	if e.L < 1 {
		return false, fmt.Errorf("%w: l = %v", ErrParameter, e.L)
	}
	if len(classes) == 0 {
		return false, ErrNoClasses
	}
	minEntropy, err := MeasureEntropyL(t, classes, e.Sensitive)
	if err != nil {
		return false, err
	}
	return minEntropy >= math.Log(e.L)-1e-12, nil
}

// MeasureEntropyL returns the minimum sensitive-value entropy (natural log)
// over all classes. A release satisfies entropy l-diversity iff this value is
// at least log(l).
func MeasureEntropyL(t *dataset.Table, classes []dataset.EquivalenceClass, sensitive string) (float64, error) {
	min := math.Inf(1)
	err := eachClass(t, classes, sensitive, func(h *classHist) bool {
		if e := h.entropy(); e < min {
			min = e
		}
		return true
	})
	if err != nil || len(classes) == 0 {
		return 0, err
	}
	return min, nil
}

// RecursiveCLDiversity implements recursive (c, l)-diversity: in every class,
// with sensitive value counts sorted descending r1 >= r2 >= ..., it requires
// r1 < c * (r_l + r_{l+1} + ... + r_m).
type RecursiveCLDiversity struct {
	C         float64
	L         int
	Sensitive string
}

// Name implements Criterion.
func (r RecursiveCLDiversity) Name() string {
	return fmt.Sprintf("recursive (%.1f,%d)-diversity[%s]", r.C, r.L, r.Sensitive)
}

// Check implements Criterion.
func (r RecursiveCLDiversity) Check(t *dataset.Table, classes []dataset.EquivalenceClass) (bool, error) {
	if r.C <= 0 || r.L < 1 {
		return false, fmt.Errorf("%w: c=%v l=%d", ErrParameter, r.C, r.L)
	}
	if len(classes) == 0 {
		return false, ErrNoClasses
	}
	ok := true
	err := eachClass(t, classes, r.Sensitive, func(h *classHist) bool {
		r1, tail, diverse := h.recursiveTerms(r.L)
		ok = diverse && float64(r1) < r.C*float64(tail)
		return ok
	})
	return ok && err == nil, err
}

// MeasureRecursiveC returns the smallest c for which the release satisfies
// recursive (c,l)-diversity at the given l: the maximum over classes of
// r1 / (r_l + ... + r_m) with counts sorted descending (plus a hair, since
// the criterion is a strict inequality). A class with fewer than l distinct
// sensitive values satisfies no c, reported as +Inf.
func MeasureRecursiveC(t *dataset.Table, classes []dataset.EquivalenceClass, l int, sensitive string) (float64, error) {
	if l < 1 {
		return 0, fmt.Errorf("%w: l = %d", ErrParameter, l)
	}
	max := 0.0
	err := eachClass(t, classes, sensitive, func(h *classHist) bool {
		r1, tail, diverse := h.recursiveTerms(l)
		if !diverse {
			max = math.Inf(1)
			return false
		}
		if ratio := float64(r1) / float64(tail); ratio > max {
			max = ratio
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return max, nil
}

// ---------------------------------------------------------------------------
// t-closeness
// ---------------------------------------------------------------------------

// TCloseness requires the earth mover's distance between each class's
// sensitive-value distribution and the overall table distribution to be at
// most T. Categorical sensitive attributes use the equal ground distance
// (EMD = total variation distance); numeric sensitive attributes use the
// ordered ground distance of Li et al.
type TCloseness struct {
	T         float64
	Sensitive string
	// Ordered selects the ordered-distance EMD; when false the equal
	// ground distance is used. Numeric sensitive attributes should set it.
	Ordered bool
}

// Name implements Criterion.
func (tc TCloseness) Name() string {
	return fmt.Sprintf("%.2f-closeness[%s]", tc.T, tc.Sensitive)
}

// Check implements Criterion.
func (tc TCloseness) Check(t *dataset.Table, classes []dataset.EquivalenceClass) (bool, error) {
	if tc.T < 0 || tc.T > 1 {
		return false, fmt.Errorf("%w: t = %v", ErrParameter, tc.T)
	}
	if len(classes) == 0 {
		return false, ErrNoClasses
	}
	maxEMD, err := MeasureMaxEMD(t, classes, tc.Sensitive, tc.Ordered)
	if err != nil {
		return false, err
	}
	return maxEMD <= tc.T+1e-12, nil
}

// MeasureMaxEMD returns the maximum earth mover's distance between any
// class's sensitive distribution and the global distribution — the strongest
// t for which the release is t-close.
func MeasureMaxEMD(t *dataset.Table, classes []dataset.EquivalenceClass, sensitive string, ordered bool) (float64, error) {
	cc, err := t.CodedColumnByName(sensitive)
	if err != nil {
		return 0, err
	}
	st := cc.Stats()
	// Categorical domains, and ordered domains with a non-numeric value,
	// are ordered lexicographically.
	domain := st.Lex
	if ordered && st.Numeric != nil {
		domain = st.Numeric
	}
	globalDist := make([]float64, len(domain))
	for i, code := range domain {
		globalDist[i] = float64(st.Counts[code]) / float64(cc.Len())
	}
	localDist := make([]float64, len(domain))
	max := 0.0
	err = eachClass(t, classes, sensitive, func(h *classHist) bool {
		for i, code := range domain {
			localDist[i] = 0
			if h.size > 0 {
				localDist[i] = float64(h.counts[code]) / float64(h.size)
			}
		}
		var d float64
		if ordered {
			d = orderedEMD(localDist, globalDist)
		} else {
			d = equalEMD(localDist, globalDist)
		}
		if d > max {
			max = d
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return max, nil
}

// equalEMD is the earth mover's distance under the equal ground distance,
// which reduces to the total variation distance.
func equalEMD(p, q []float64) float64 {
	sum := 0.0
	for i := range p {
		sum += math.Abs(p[i] - q[i])
	}
	return sum / 2
}

// orderedEMD is the earth mover's distance for an ordered domain: the mean of
// absolute prefix sums of (p - q), normalized by (m - 1).
func orderedEMD(p, q []float64) float64 {
	m := len(p)
	if m <= 1 {
		return 0
	}
	sum, prefix := 0.0, 0.0
	for i := 0; i < m; i++ {
		prefix += p[i] - q[i]
		sum += math.Abs(prefix)
	}
	return sum / float64(m-1)
}

// ---------------------------------------------------------------------------
// Per-class sensitive histogram kernel
// ---------------------------------------------------------------------------

// classHist is one equivalence class's sensitive-value histogram over the
// sensitive column's dictionary codes. Every sensitive-attribute criterion
// and measure reads classes through it, so a class costs
// O(|class| + cardinality) with no string hashing, and the column's global
// histogram and domain orders (dataset.ColumnStats) are computed once per
// column rather than once per check.
type classHist struct {
	// counts[code] is the number of class members holding code.
	counts []int
	// size is the class size; distinct the number of nonzero counts.
	size, distinct int
	// lex lists the column's occurring codes in lexicographic value order.
	// Entropy sums run in this order, which makes them deterministic.
	lex []uint32
}

// eachClass counts every class's sensitive codes into one reused histogram
// and calls fn on it, stopping early when fn returns false. With no classes
// it resolves nothing, so an unknown sensitive attribute is reported only
// when there is a class to evaluate.
func eachClass(t *dataset.Table, classes []dataset.EquivalenceClass, sensitive string, fn func(*classHist) bool) error {
	if len(classes) == 0 {
		return nil
	}
	cc, err := t.CodedColumnByName(sensitive)
	if err != nil {
		return err
	}
	h := &classHist{counts: make([]int, cc.Cardinality()), lex: cc.Stats().Lex}
	for _, c := range classes {
		clear(h.counts)
		h.size, h.distinct = len(c.Rows), 0
		for _, r := range c.Rows {
			if r < 0 || r >= len(cc.Codes) {
				return fmt.Errorf("%w: %d (table has %d rows)", dataset.ErrRowIndex, r, len(cc.Codes))
			}
			code := cc.Codes[r]
			if h.counts[code] == 0 {
				h.distinct++
			}
			h.counts[code]++
		}
		if !fn(h) {
			return nil
		}
	}
	return nil
}

// maxShare is the largest relative frequency of one value in the class.
func (h *classHist) maxShare() float64 {
	max := 0.0
	for _, n := range h.counts {
		if n == 0 {
			continue
		}
		if f := float64(n) / float64(h.size); f > max {
			max = f
		}
	}
	return max
}

// entropy is the natural-log entropy of the class's sensitive distribution.
func (h *classHist) entropy() float64 {
	e := 0.0
	for _, code := range h.lex {
		if n := h.counts[code]; n > 0 {
			p := float64(n) / float64(h.size)
			e -= p * math.Log(p)
		}
	}
	return e
}

// recursiveTerms returns r1 and r_l + ... + r_m over the class's counts
// sorted descending, and false when the class has fewer than l distinct
// values.
func (h *classHist) recursiveTerms(l int) (r1, tail int, ok bool) {
	if h.distinct < l {
		return 0, 0, false
	}
	counts := make([]int, 0, h.distinct)
	for _, n := range h.counts {
		if n > 0 {
			counts = append(counts, n)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	for _, n := range counts[l-1:] {
		tail += n
	}
	return counts[0], tail, true
}

// ---------------------------------------------------------------------------
// δ-presence (table linkage)
// ---------------------------------------------------------------------------

// DeltaPresence bounds the probability that an adversary who knows an
// individual is in a public table P can infer the individual is also in the
// released private table T ⊆ P. For every equivalence class of the release
// (computed over the public table's quasi-identifier recoding), the ratio
// |class ∩ T| / |class ∩ P| must lie in [DeltaMin, DeltaMax].
type DeltaPresence struct {
	DeltaMin float64
	DeltaMax float64
	// Public is the public superset table generalized with the same recoding
	// as the checked release.
	Public *dataset.Table
}

// Name implements Criterion.
func (d DeltaPresence) Name() string {
	return fmt.Sprintf("(%.2f,%.2f)-presence", d.DeltaMin, d.DeltaMax)
}

// Check implements Criterion.
func (d DeltaPresence) Check(t *dataset.Table, _ []dataset.EquivalenceClass) (bool, error) {
	lo, hi, err := MeasurePresence(t, d.Public)
	if err != nil {
		return false, err
	}
	if d.DeltaMin < 0 || d.DeltaMax > 1 || d.DeltaMin > d.DeltaMax {
		return false, fmt.Errorf("%w: delta range [%v, %v]", ErrParameter, d.DeltaMin, d.DeltaMax)
	}
	return lo >= d.DeltaMin-1e-12 && hi <= d.DeltaMax+1e-12, nil
}

// MeasurePresence computes the minimum and maximum presence ratio
// |class ∩ private| / |class ∩ public| over the public table's
// quasi-identifier equivalence classes. Classes of the public table with no
// private members contribute a ratio of 0.
func MeasurePresence(private, public *dataset.Table) (min, max float64, err error) {
	if public == nil {
		return 0, 0, errors.New("privacy: delta-presence requires a public table")
	}
	qi := public.Schema().QuasiIdentifierNames()
	if len(qi) == 0 {
		return 0, 0, errors.New("privacy: public table has no quasi-identifiers")
	}
	pubClasses, err := public.GroupBy(qi...)
	if err != nil {
		return 0, 0, err
	}
	// Count private rows per signature using the same QI columns.
	privClasses, err := private.GroupBy(qi...)
	if err != nil {
		return 0, 0, err
	}
	privCounts := make(map[string]int, len(privClasses))
	for _, c := range privClasses {
		privCounts[c.Signature] = c.Size()
	}
	min, max = 1, 0
	if len(pubClasses) == 0 {
		return 0, 0, ErrNoClasses
	}
	for _, c := range pubClasses {
		ratio := float64(privCounts[c.Signature]) / float64(c.Size())
		if ratio < min {
			min = ratio
		}
		if ratio > max {
			max = ratio
		}
	}
	return min, max, nil
}

// Package privacy implements the privacy models (release criteria) cataloged
// by the PPDP survey: k-anonymity and (α,k)-anonymity against record linkage,
// the l-diversity family and t-closeness against attribute linkage, and
// δ-presence against table linkage. Each model has one Evaluate, which
// measures the strongest value of the model's headline parameter a release
// attains and decides from it whether the release meets the declared one.
// The algorithms enforce a model through that verdict (CheckAll) and the
// release pipeline reports it as the release's measurements, so what a
// release claims and what its anonymization enforced cannot disagree.
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
	// ErrNoClasses is returned when criteria are checked against an empty
	// release.
	ErrNoClasses = errors.New("privacy: release has no equivalence classes")
)

// Verdict is one criterion's evaluation of a release.
type Verdict struct {
	// Satisfied reports whether the release meets the criterion. For every
	// model but (α,k)-anonymity and δ-presence it follows from Measured and
	// Target alone.
	Satisfied bool
	// Measured is the strongest value of the criterion's headline parameter
	// the release attains (see each model's Evaluate).
	Measured float64
	// Target is the parameter the criterion declares.
	Target float64
}

// Criterion is a privacy model evaluated against a released table
// partitioned into quasi-identifier equivalence classes.
type Criterion interface {
	// Name returns a short human-readable description such as "5-anonymity".
	Name() string
	// Evaluate measures the release and decides the criterion. The classes
	// must be the quasi-identifier equivalence classes of t; with none, the
	// models measure 0 (entropy l-diversity e^0 = 1).
	Evaluate(t *dataset.Table, classes []dataset.EquivalenceClass) (Verdict, error)
}

// CheckAll evaluates all criteria and returns true only if every one is
// satisfied. The first dissatisfied criterion's name is returned for
// diagnostics. A release with no classes satisfies nothing: it is reported
// as ErrNoClasses against the first criterion.
func CheckAll(t *dataset.Table, classes []dataset.EquivalenceClass, criteria ...Criterion) (bool, string, error) {
	if len(classes) == 0 && len(criteria) > 0 {
		return false, criteria[0].Name(), ErrNoClasses
	}
	for _, c := range criteria {
		v, err := c.Evaluate(t, classes)
		if err != nil {
			return false, c.Name(), err
		}
		if !v.Satisfied {
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

// Evaluate implements Criterion: Measured is the minimum class size, and the
// release is k-anonymous when it is at least K.
func (k KAnonymity) Evaluate(_ *dataset.Table, classes []dataset.EquivalenceClass) (Verdict, error) {
	if k.K < 1 {
		return Verdict{}, fmt.Errorf("%w: k = %d", ErrParameter, k.K)
	}
	m := MeasureK(classes)
	return Verdict{Satisfied: m >= k.K, Measured: float64(m), Target: float64(k.K)}, nil
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

// Evaluate implements Criterion: Measured is the largest relative frequency
// any sensitive value reaches inside one class — the smallest α the release
// satisfies — and the release is (α,k)-anonymous when it is at most Alpha
// and every class holds at least K records.
func (a AlphaKAnonymity) Evaluate(t *dataset.Table, classes []dataset.EquivalenceClass) (Verdict, error) {
	if a.K < 1 || a.Alpha <= 0 || a.Alpha > 1 {
		return Verdict{}, fmt.Errorf("%w: alpha=%v k=%d", ErrParameter, a.Alpha, a.K)
	}
	max, err := maxOver(t, classes, a.Sensitive, (*classHist).maxShare)
	if err != nil {
		return Verdict{}, err
	}
	ok := max <= a.Alpha && MeasureK(classes) >= a.K
	return Verdict{Satisfied: ok, Measured: max, Target: a.Alpha}, nil
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

// Evaluate implements Criterion: Measured is the minimum number of distinct
// sensitive values per class, and the release is distinct l-diverse when it
// is at least L.
func (d DistinctLDiversity) Evaluate(t *dataset.Table, classes []dataset.EquivalenceClass) (Verdict, error) {
	if d.L < 1 {
		return Verdict{}, fmt.Errorf("%w: l = %d", ErrParameter, d.L)
	}
	l, err := MeasureDistinctL(t, classes, d.Sensitive)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{Satisfied: l >= d.L, Measured: float64(l), Target: float64(d.L)}, nil
}

// MeasureDistinctL returns the minimum number of distinct sensitive values
// over all classes — the strongest distinct l-diversity the release satisfies.
func MeasureDistinctL(t *dataset.Table, classes []dataset.EquivalenceClass, sensitive string) (int, error) {
	negMin, err := maxOver(t, classes, sensitive, func(h *classHist) float64 { return -float64(h.distinct) })
	return int(-negMin), err
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

// Evaluate implements Criterion: Measured is the effective l, e^H for the
// minimum natural-log sensitive entropy H over all classes, and the release
// is entropy l-diverse when it is at least L (H ≥ log L within 1e-12).
func (e EntropyLDiversity) Evaluate(t *dataset.Table, classes []dataset.EquivalenceClass) (Verdict, error) {
	if e.L < 1 {
		return Verdict{}, fmt.Errorf("%w: l = %v", ErrParameter, e.L)
	}
	// The minimum entropy is the negated maximum of -H.
	negMin, err := maxOver(t, classes, e.Sensitive, func(h *classHist) float64 { return -h.entropy() })
	if err != nil {
		return Verdict{}, err
	}
	min := -negMin
	return Verdict{Satisfied: min >= math.Log(e.L)-1e-12, Measured: math.Exp(min), Target: e.L}, nil
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

// Evaluate implements Criterion: Measured is the maximum over classes of
// r1 / (r_l + ... + r_m), +Inf when a class has fewer than L distinct
// sensitive values, and the release is recursive (c,l)-diverse when it is
// strictly below C.
func (r RecursiveCLDiversity) Evaluate(t *dataset.Table, classes []dataset.EquivalenceClass) (Verdict, error) {
	if r.C <= 0 || r.L < 1 {
		return Verdict{}, fmt.Errorf("%w: c=%v l=%d", ErrParameter, r.C, r.L)
	}
	max, err := maxOver(t, classes, r.Sensitive, func(h *classHist) float64 {
		r1, tail, diverse := h.recursiveTerms(r.L)
		if !diverse {
			return math.Inf(1)
		}
		return float64(r1) / float64(tail)
	})
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{Satisfied: max < r.C, Measured: max, Target: r.C}, nil
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

// Evaluate implements Criterion: Measured is the maximum per-class EMD, and
// the release is t-close when it is at most T (within 1e-12).
func (tc TCloseness) Evaluate(t *dataset.Table, classes []dataset.EquivalenceClass) (Verdict, error) {
	if tc.T < 0 || tc.T > 1 {
		return Verdict{}, fmt.Errorf("%w: t = %v", ErrParameter, tc.T)
	}
	maxEMD, err := MeasureMaxEMD(t, classes, tc.Sensitive, tc.Ordered)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{Satisfied: maxEMD <= tc.T+1e-12, Measured: maxEMD, Target: tc.T}, nil
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
	n := float64(cc.Len())
	// One pass over the domain per class: the local and global shares of
	// each value feed the total variation (equal ground distance) or the
	// prefix sums (ordered ground distance) directly.
	return maxOver(t, classes, sensitive, func(h *classHist) float64 {
		if ordered && len(domain) <= 1 {
			return 0
		}
		sum, prefix := 0.0, 0.0
		for _, code := range domain {
			local := 0.0
			if h.size > 0 {
				local = float64(h.counts[code]) / float64(h.size)
			}
			global := float64(st.Counts[code]) / n
			if ordered {
				prefix += local - global
				sum += math.Abs(prefix)
			} else {
				sum += math.Abs(local - global)
			}
		}
		if ordered {
			// The mean of the absolute prefix sums, normalized by m - 1.
			return sum / float64(len(domain)-1)
		}
		return sum / 2
	})
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

// maxOver returns the maximum of f over the classes' histograms, or 0 with
// no classes. It stops at +Inf, which no later class can exceed.
func maxOver(t *dataset.Table, classes []dataset.EquivalenceClass, sensitive string, f func(*classHist) float64) (float64, error) {
	max := math.Inf(-1)
	err := eachClass(t, classes, sensitive, func(h *classHist) bool {
		max = math.Max(max, f(h))
		return !math.IsInf(max, 1)
	})
	if err != nil || len(classes) == 0 {
		return 0, err
	}
	return max, nil
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

// Evaluate implements Criterion. It groups the public table itself, so the
// classes are ignored. Measured is the largest presence ratio and Target
// DeltaMax; the release is δ-present when the ratios lie in
// [DeltaMin, DeltaMax] (within 1e-12).
func (d DeltaPresence) Evaluate(t *dataset.Table, _ []dataset.EquivalenceClass) (Verdict, error) {
	lo, hi, err := MeasurePresence(t, d.Public)
	if err != nil {
		return Verdict{}, err
	}
	if d.DeltaMin < 0 || d.DeltaMax > 1 || d.DeltaMin > d.DeltaMax {
		return Verdict{}, fmt.Errorf("%w: delta range [%v, %v]", ErrParameter, d.DeltaMin, d.DeltaMax)
	}
	ok := lo >= d.DeltaMin-1e-12 && hi <= d.DeltaMax+1e-12
	return Verdict{Satisfied: ok, Measured: hi, Target: d.DeltaMax}, nil
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
	// Count private rows per value tuple using the same QI columns. The
	// quoted tuple is an injective key: values may hold any byte.
	privClasses, err := private.GroupBy(qi...)
	if err != nil {
		return 0, 0, err
	}
	privCounts := make(map[string]int, len(privClasses))
	for _, c := range privClasses {
		privCounts[fmt.Sprintf("%q", c.Values)] = c.Size()
	}
	min, max = 1, 0
	if len(pubClasses) == 0 {
		return 0, 0, ErrNoClasses
	}
	for _, c := range pubClasses {
		ratio := float64(privCounts[fmt.Sprintf("%q", c.Values)]) / float64(c.Size())
		if ratio < min {
			min = ratio
		}
		if ratio > max {
			max = ratio
		}
	}
	return min, max, nil
}

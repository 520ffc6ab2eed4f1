// Package metrics implements the information/utility metrics the PPDP survey
// uses to compare anonymization algorithms: generalization precision, the
// discernibility metric, normalized average class size, the normalized
// certainty penalty (NCP/ILoss), attribute-distribution divergence, and
// aggregate count-query workloads with relative-error summaries.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/parallel"
)

// Common errors.
var (
	// ErrNoQuasiIdentifiers is returned when a metric needs quasi-identifier
	// columns and the table has none.
	ErrNoQuasiIdentifiers = errors.New("metrics: table has no quasi-identifier attributes")
	// ErrMismatchedTables is returned when original and released tables
	// cannot be compared.
	ErrMismatchedTables = errors.New("metrics: original and released tables are not comparable")
)

// Discernibility computes the discernibility metric DM of a release: each
// record is penalized by the size of its equivalence class, and every
// suppressed record is penalized by the size of the original table. Lower is
// better; the minimum is N (every record in a singleton class) and the
// maximum is N² (one giant class or full suppression).
func Discernibility(released *dataset.Table, originalSize int) (float64, error) {
	qi := released.Schema().QuasiIdentifierNames()
	if len(qi) == 0 {
		return 0, ErrNoQuasiIdentifiers
	}
	classes, err := released.GroupBy(qi...)
	if err != nil {
		return 0, err
	}
	return DiscernibilityOf(classes, originalSize), nil
}

// DiscernibilityOf is Discernibility over classes the caller already holds:
// the release's equivalence classes over every quasi-identifier column of
// its schema. Every released record is in one class, so the released size
// is the classes' total.
func DiscernibilityOf(classes []dataset.EquivalenceClass, originalSize int) float64 {
	dm := 0.0
	released := 0
	for _, c := range classes {
		dm += float64(c.Size()) * float64(c.Size())
		released += c.Size()
	}
	if suppressed := originalSize - released; suppressed > 0 {
		dm += float64(suppressed) * float64(originalSize)
	}
	return dm
}

// NormalizedAverageClassSize computes C_avg = (N / #classes) / k, the
// normalized average equivalence-class size of LeFevre et al. A value of 1 is
// optimal (classes exactly of size k); larger values indicate unnecessary
// generalization.
func NormalizedAverageClassSize(released *dataset.Table, k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("metrics: k must be positive, got %d", k)
	}
	qi := released.Schema().QuasiIdentifierNames()
	if len(qi) == 0 {
		return 0, ErrNoQuasiIdentifiers
	}
	classes, err := released.GroupBy(qi...)
	if err != nil {
		return 0, err
	}
	if len(classes) == 0 {
		return 0, nil
	}
	return (float64(released.Len()) / float64(len(classes))) / float64(k), nil
}

// GeneralizationPrecision computes Sweeney's precision metric of a
// full-domain release: 1 minus the average fraction of hierarchy height used
// per quasi-identifier cell. 1 means no generalization, 0 means full
// suppression of every cell.
func GeneralizationPrecision(node []int, maxLevels []int) (float64, error) {
	if len(node) != len(maxLevels) || len(node) == 0 {
		return 0, fmt.Errorf("metrics: node arity %d does not match level bounds %d", len(node), len(maxLevels))
	}
	total := 0.0
	for i := range node {
		if maxLevels[i] == 0 {
			continue
		}
		if node[i] < 0 || node[i] > maxLevels[i] {
			return 0, fmt.Errorf("metrics: node level %d out of range [0,%d]", node[i], maxLevels[i])
		}
		total += float64(node[i]) / float64(maxLevels[i])
	}
	return 1 - total/float64(len(node)), nil
}

// NCP computes the normalized certainty penalty (equivalently ILoss) of a
// released table: for each quasi-identifier cell, the fraction of its domain
// the released value spans (0 for an exact value, 1 for "*"), averaged over
// all cells. Hierarchies provide categorical group sizes; numeric cells use
// interval width over the domain range of the original table.
func NCP(original, released *dataset.Table, hs *hierarchy.Set) (float64, error) {
	qi := released.Schema().QuasiIdentifierNames()
	if len(qi) == 0 {
		return 0, ErrNoQuasiIdentifiers
	}
	if released.Len() == 0 {
		return 0, nil
	}
	type colInfo struct {
		col      int
		numeric  bool
		domain   float64 // numeric range or categorical domain size
		catSizes func(value string) float64
	}
	infos := make([]colInfo, 0, len(qi))
	for _, a := range qi {
		col, err := released.Schema().Index(a)
		if err != nil {
			return 0, err
		}
		attr, _ := released.Schema().ByName(a)
		ci := colInfo{col: col, numeric: attr.Type == dataset.Numeric}
		if ci.numeric {
			lo, hi, err := original.NumericRange(a)
			if err != nil {
				return 0, fmt.Errorf("%w: %v", ErrMismatchedTables, err)
			}
			ci.domain = hi - lo
			if ci.domain <= 0 {
				ci.domain = 1
			}
		} else {
			dom, err := original.Domain(a)
			if err != nil {
				return 0, fmt.Errorf("%w: %v", ErrMismatchedTables, err)
			}
			domainSize := float64(len(dom))
			if domainSize <= 1 {
				domainSize = 1
			}
			var h hierarchy.Hierarchy
			if hs != nil && hs.Has(a) {
				h, _ = hs.Get(a)
			}
			ci.domain = domainSize
			ci.catSizes = func(value string) float64 {
				if value == dataset.SuppressedValue {
					return domainSize
				}
				if strings.HasPrefix(value, "{") && strings.HasSuffix(value, "}") {
					return float64(len(strings.Split(value[1:len(value)-1], ",")))
				}
				if h != nil {
					if ch, ok := h.(*hierarchy.CategoryHierarchy); ok {
						return float64(ch.GroupSizeOfGeneralized(value))
					}
					if h.Contains(value) {
						return 1
					}
				}
				// Unknown released value: if it appears in the original
				// domain it is exact, otherwise assume full uncertainty.
				for _, d := range dom {
					if d == value {
						return 1
					}
				}
				return domainSize
			}
		}
		infos = append(infos, ci)
	}

	// The released table holds a handful of distinct values per column (that
	// is the point of generalization), so compute the span of each distinct
	// value once and stream the per-cell sum over the dictionary codes —
	// no cell is parsed or matched against hierarchies more than once.
	spans := make([][]float64, len(infos))
	codes := make([][]uint32, len(infos))
	for i, ci := range infos {
		cc, err := released.CodedColumn(ci.col)
		if err != nil {
			return 0, err
		}
		spans[i] = make([]float64, cc.Cardinality())
		codes[i] = cc.Codes
		for code, v := range cc.Dict {
			var span float64
			if ci.numeric {
				span = numericSpan(v, ci.domain)
			} else {
				n := ci.catSizes(v)
				if n <= 1 {
					span = 0
				} else {
					span = (n - 1) / math.Max(ci.domain-1, 1)
				}
			}
			if span > 1 {
				span = 1
			}
			spans[i][code] = span
		}
	}
	// Accumulate by counting code occurrences rather than summing row-major:
	// the row scan becomes pure integer increments whose per-chunk partials
	// merge exactly, so the result is identical for every worker count — a
	// hard requirement, because the cross-request result cache deliberately
	// excludes Workers from its key (NCP must be output-invariant under the
	// parallelism knob). Each distinct value's span then enters the sum once,
	// in fixed (column, code) order, weighted by its count. The boundary
	// cases stay exact: an unmodified release sums zeros to 0, and a fully
	// suppressed one sums spans of 1 scaled by integer counts to cells.
	rows := released.Len()
	counts := codeCounts(codes, spans, rows, released.ScanWorkers())
	total := 0.0
	cells := rows * len(infos)
	for i, sp := range spans {
		for code, cnt := range counts[i] {
			if cnt != 0 {
				total += sp[code] * float64(cnt)
			}
		}
	}
	if cells == 0 {
		return 0, nil
	}
	return total / float64(cells), nil
}

// codeCounts tallies, per column, how many rows carry each dictionary code,
// scanning contiguous row chunks on up to workers goroutines. Integer
// partials merge exactly, so every worker count yields identical counts.
func codeCounts(codes [][]uint32, spans [][]float64, rows, workers int) [][]int64 {
	tally := func(lo, hi int) ([][]int64, error) {
		part := make([][]int64, len(codes))
		for i := range codes {
			part[i] = make([]int64, len(spans[i]))
		}
		for i, col := range codes {
			cnt := part[i]
			for _, code := range col[lo:hi] {
				cnt[code]++
			}
		}
		return part, nil
	}
	add := func(acc, next [][]int64) ([][]int64, error) {
		for i := range acc {
			for code, c := range next[i] {
				acc[i][code] += c
			}
		}
		return acc, nil
	}
	counts, _ := parallel.Fold(rows, workers, 0, tally, add)
	return counts
}

// numericSpan returns the fraction of the numeric domain covered by a
// released value: 0 for exact numbers, interval width over domain for
// "[lo-hi)" values, and 1 for suppressed or unparseable values.
func numericSpan(value string, domain float64) float64 {
	if value == dataset.SuppressedValue {
		return 1
	}
	// An interval never parses as a number, so it skips ParseFloat (whose
	// error would allocate).
	if v := strings.TrimSpace(value); !strings.HasPrefix(v, "[") {
		if _, err := strconv.ParseFloat(v, 64); err == nil {
			return 0
		}
		return 1
	}
	if lo, hi, ok := hierarchy.ParseInterval(value); ok {
		if hi <= lo {
			return 0
		}
		return (hi - lo) / domain
	}
	return 1
}

// AttributeDivergence computes the Kullback-Leibler divergence between the
// original and released distributions of the named attribute, with add-one
// smoothing over the union of observed values. It quantifies how much the
// release distorts single-attribute statistics (0 means identical
// distributions).
func AttributeDivergence(original, released *dataset.Table, attr string) (float64, error) {
	p, err := original.Frequencies(attr)
	if err != nil {
		return 0, err
	}
	q, err := released.Frequencies(attr)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrMismatchedTables, err)
	}
	values := make(map[string]struct{})
	for v := range p {
		values[v] = struct{}{}
	}
	for v := range q {
		values[v] = struct{}{}
	}
	domain := make([]string, 0, len(values))
	for v := range values {
		domain = append(domain, v)
	}
	sort.Strings(domain)
	pn := float64(original.Len() + len(domain))
	qn := float64(released.Len() + len(domain))
	kl := 0.0
	for _, v := range domain {
		pv := (float64(p[v]) + 1) / pn
		qv := (float64(q[v]) + 1) / qn
		kl += pv * math.Log(pv/qv)
	}
	return kl, nil
}

package hierarchy

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// IntervalHierarchy generalizes a numeric attribute into progressively wider
// intervals. Level 0 is the original value; level i (1 <= i <= len(widths))
// maps the value into the bucket of width widths[i-1] that contains it,
// rendered as "[lo-hi)"; the final level is full suppression ("*").
//
// Widths must be strictly increasing so higher levels are strictly coarser,
// and buckets at every level are anchored at the domain minimum so that any
// bucket of level i nests inside exactly one bucket of level i+1 when widths
// are integer multiples. Nesting is not required for correctness of the
// algorithms but produces cleaner releases; the constructor only enforces
// monotonicity.
type IntervalHierarchy struct {
	attr   string
	min    float64
	max    float64
	widths []float64
	// integral renders bucket bounds without decimals when true.
	integral bool
}

// NewInterval builds an interval hierarchy over the inclusive numeric domain
// [min, max] with the given strictly increasing bucket widths.
func NewInterval(attr string, min, max float64, widths []float64) (*IntervalHierarchy, error) {
	if attr == "" {
		return nil, fmt.Errorf("hierarchy: empty attribute name")
	}
	if math.IsNaN(min) || math.IsNaN(max) || min > max {
		return nil, fmt.Errorf("hierarchy: invalid domain [%v, %v] for %q", min, max, attr)
	}
	if len(widths) == 0 {
		return nil, fmt.Errorf("hierarchy: interval hierarchy for %q needs at least one width", attr)
	}
	prev := 0.0
	for i, w := range widths {
		if w <= prev {
			return nil, fmt.Errorf("hierarchy: widths must be strictly increasing, got %v at position %d", w, i)
		}
		prev = w
	}
	integral := min == math.Trunc(min) && max == math.Trunc(max)
	for _, w := range widths {
		if w != math.Trunc(w) {
			integral = false
		}
	}
	return &IntervalHierarchy{attr: attr, min: min, max: max, widths: append([]float64(nil), widths...), integral: integral}, nil
}

// MustInterval is like NewInterval but panics on error.
func MustInterval(attr string, min, max float64, widths []float64) *IntervalHierarchy {
	h, err := NewInterval(attr, min, max, widths)
	if err != nil {
		panic(err)
	}
	return h
}

// Attribute implements Hierarchy.
func (h *IntervalHierarchy) Attribute() string { return h.attr }

// MaxLevel implements Hierarchy. The top level (full suppression) is one past
// the last width.
func (h *IntervalHierarchy) MaxLevel() int { return len(h.widths) + 1 }

// DomainSize implements Hierarchy. For integral domains it is the number of
// integers in [min, max]; for continuous domains the span is used as a
// proxy (utility metrics only need ratios of group size to domain size).
func (h *IntervalHierarchy) DomainSize() int {
	if h.integral {
		return int(h.max-h.min) + 1
	}
	span := h.max - h.min
	if span < 1 {
		return 1
	}
	return int(span)
}

// Contains implements Hierarchy.
func (h *IntervalHierarchy) Contains(value string) bool {
	f, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
	if err != nil {
		return false
	}
	return f >= h.min && f <= h.max
}

// bucket returns the inclusive-exclusive bounds of the level-i bucket that
// contains f. Bounds are never clamped to the domain maximum: clamping would
// make the last bucket of a coarser level narrower than a finer level's
// bucket for boundary values, breaking generalization monotonicity.
func (h *IntervalHierarchy) bucket(f float64, level int) (lo, hi float64) {
	w := h.widths[level-1]
	idx := math.Floor((f - h.min) / w)
	lo = h.min + idx*w
	hi = lo + w
	return lo, hi
}

// FormatInterval renders an interval the way Generalize does. It is exported
// so multidimensional recoders (Mondrian) can emit ranges in the same syntax.
func FormatInterval(lo, hi float64, integral bool) string {
	fmtNum := func(f float64) string {
		if integral {
			return strconv.FormatInt(int64(f), 10)
		}
		return strconv.FormatFloat(f, 'g', 6, 64)
	}
	return "[" + fmtNum(lo) + "-" + fmtNum(hi) + ")"
}

// Generalize implements Hierarchy.
func (h *IntervalHierarchy) Generalize(value string, level int) (string, error) {
	if err := checkLevel(level, h.MaxLevel()); err != nil {
		return "", err
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
	if err != nil || f < h.min || f > h.max {
		return "", fmt.Errorf("%w: %q (attribute %q)", ErrUnknownValue, value, h.attr)
	}
	switch {
	case level == 0:
		return value, nil
	case level == h.MaxLevel():
		return SuppressedValue, nil
	default:
		lo, hi := h.bucket(f, level)
		return FormatInterval(lo, hi, h.integral), nil
	}
}

// GroupSize implements Hierarchy.
func (h *IntervalHierarchy) GroupSize(value string, level int) (int, error) {
	if err := checkLevel(level, h.MaxLevel()); err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
	if err != nil || f < h.min || f > h.max {
		return 0, fmt.Errorf("%w: %q (attribute %q)", ErrUnknownValue, value, h.attr)
	}
	switch {
	case level == 0:
		return 1, nil
	case level == h.MaxLevel():
		return h.DomainSize(), nil
	default:
		lo, hi := h.bucket(f, level)
		span := hi - lo
		n := int(span)
		if n < 1 {
			n = 1
		}
		if n > h.DomainSize() {
			n = h.DomainSize()
		}
		return n, nil
	}
}

// Min returns the lower bound of the hierarchy's domain.
func (h *IntervalHierarchy) Min() float64 { return h.min }

// Max returns the upper bound of the hierarchy's domain.
func (h *IntervalHierarchy) Max() float64 { return h.max }

// ParseInterval parses a generalized value of the form "[lo-hi)" as produced
// by Generalize and Mondrian recoding, returning its numeric bounds. Plain
// numbers parse as degenerate intervals [v, v]; the suppressed value "*"
// returns ok=false.
func ParseInterval(value string) (lo, hi float64, ok bool) {
	v := strings.TrimSpace(value)
	if v == SuppressedValue || v == "" {
		return 0, 0, false
	}
	// Only the interval shape starts with '[', which no number does, so
	// it skips ParseFloat (whose error would allocate).
	if !strings.HasPrefix(v, "[") {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f, f, true
		}
		return 0, 0, false
	}
	if !strings.HasSuffix(v, ")") {
		return 0, 0, false
	}
	body := v[1 : len(v)-1]
	// Split on the last '-' that is not the leading sign of the first number.
	sep := -1
	for i := 1; i < len(body); i++ {
		if body[i] == '-' && body[i-1] != 'e' && body[i-1] != 'E' && body[i-1] != '-' {
			sep = i
			// keep searching: bounds like "[-10--5)" need the last separator
		}
	}
	if sep <= 0 {
		return 0, 0, false
	}
	loS, hiS := body[:sep], body[sep+1:]
	loF, err1 := strconv.ParseFloat(loS, 64)
	hiF, err2 := strconv.ParseFloat(hiS, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return loF, hiF, true
}

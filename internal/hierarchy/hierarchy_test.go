package hierarchy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleCategory(t *testing.T) *CategoryHierarchy {
	t.Helper()
	h, err := NewCategory("education", map[string][]string{
		"bachelors": {"higher", "any"},
		"masters":   {"higher", "any"},
		"doctorate": {"higher", "any"},
		"hs-grad":   {"secondary", "any"},
		"11th":      {"secondary", "any"},
	})
	if err != nil {
		t.Fatalf("NewCategory: %v", err)
	}
	return h
}

func TestCategoryBasics(t *testing.T) {
	h := sampleCategory(t)
	if h.Attribute() != "education" {
		t.Errorf("Attribute = %q", h.Attribute())
	}
	// 2 explicit levels + appended suppression level.
	if h.MaxLevel() != 3 {
		t.Errorf("MaxLevel = %d, want 3", h.MaxLevel())
	}
	if h.DomainSize() != 5 {
		t.Errorf("DomainSize = %d", h.DomainSize())
	}
	if !h.Contains("masters") || h.Contains("nope") {
		t.Error("Contains wrong")
	}
	cases := []struct {
		value string
		level int
		want  string
	}{
		{"masters", 0, "masters"},
		{"masters", 1, "higher"},
		{"masters", 2, "any"},
		{"masters", 3, "*"},
		{"11th", 1, "secondary"},
	}
	for _, c := range cases {
		got, err := h.Generalize(c.value, c.level)
		if err != nil {
			t.Fatalf("Generalize(%q,%d): %v", c.value, c.level, err)
		}
		if got != c.want {
			t.Errorf("Generalize(%q,%d) = %q, want %q", c.value, c.level, got, c.want)
		}
	}
	if _, err := h.Generalize("nope", 1); !errors.Is(err, ErrUnknownValue) {
		t.Errorf("unknown value error = %v", err)
	}
	if _, err := h.Generalize("nope", 0); !errors.Is(err, ErrUnknownValue) {
		t.Errorf("unknown value at level 0 error = %v", err)
	}
	if _, err := h.Generalize("masters", 9); !errors.Is(err, ErrLevel) {
		t.Errorf("bad level error = %v", err)
	}
}

func TestCategoryGroupSizes(t *testing.T) {
	h := sampleCategory(t)
	cases := []struct {
		value string
		level int
		want  int
	}{
		{"masters", 0, 1},
		{"masters", 1, 3}, // higher: bachelors, masters, doctorate
		{"hs-grad", 1, 2}, // secondary: hs-grad, 11th
		{"masters", 2, 5}, // any
		{"masters", 3, 5}, // *
	}
	for _, c := range cases {
		got, err := h.GroupSize(c.value, c.level)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("GroupSize(%q,%d) = %d, want %d", c.value, c.level, got, c.want)
		}
	}
	if got := h.GroupSizeOfGeneralized("higher"); got != 3 {
		t.Errorf("GroupSizeOfGeneralized(higher) = %d", got)
	}
	if got := h.GroupSizeOfGeneralized("unknown-thing"); got != 5 {
		t.Errorf("GroupSizeOfGeneralized(unknown) = %d, want domain size", got)
	}
}

func TestCategoryErrors(t *testing.T) {
	if _, err := NewCategory("", map[string][]string{"a": {"*"}}); err == nil {
		t.Error("empty attribute accepted")
	}
	if _, err := NewCategory("x", nil); !errors.Is(err, ErrEmptyDomain) {
		t.Errorf("empty domain error = %v", err)
	}
	_, err := NewCategory("x", map[string][]string{"a": {"g", "*"}, "b": {"*"}})
	if err == nil {
		t.Error("ragged paths accepted")
	}
	_, err = NewCategory("x", map[string][]string{"a": {"r1"}, "b": {"r2"}})
	if err == nil {
		t.Error("differing roots accepted")
	}
}

func TestCategoryRootAlreadySuppressed(t *testing.T) {
	h, err := NewCategory("sex", map[string][]string{"male": {"*"}, "female": {"*"}})
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxLevel() != 1 {
		t.Errorf("MaxLevel = %d, want 1 (no extra suppression level)", h.MaxLevel())
	}
	g, _ := h.Generalize("male", 1)
	if g != "*" {
		t.Errorf("Generalize = %q", g)
	}
}

func TestFlatAndGroupedCategory(t *testing.T) {
	f, err := NewFlatCategory("sex", []string{"male", "female"})
	if err != nil {
		t.Fatal(err)
	}
	if f.MaxLevel() != 1 {
		t.Errorf("flat MaxLevel = %d", f.MaxLevel())
	}
	if _, err := NewFlatCategory("sex", nil); !errors.Is(err, ErrEmptyDomain) {
		t.Errorf("empty flat error = %v", err)
	}

	g, err := NewGroupedCategory("marital", map[string][]string{
		"married": {"married-civ", "married-af"},
		"alone":   {"never-married", "divorced", "widowed"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxLevel() != 2 {
		t.Errorf("grouped MaxLevel = %d", g.MaxLevel())
	}
	v, _ := g.Generalize("divorced", 1)
	if v != "alone" {
		t.Errorf("grouped Generalize = %q", v)
	}
	n, _ := g.GroupSize("divorced", 1)
	if n != 3 {
		t.Errorf("grouped GroupSize = %d", n)
	}
	_, err = NewGroupedCategory("bad", map[string][]string{"g1": {"x"}, "g2": {"x"}})
	if err == nil {
		t.Error("duplicate leaf across groups accepted")
	}
	if got := g.Domain(); !reflect.DeepEqual(got, []string{"divorced", "married-af", "married-civ", "never-married", "widowed"}) {
		t.Errorf("Domain = %v", got)
	}
}

func TestIntervalBasics(t *testing.T) {
	h, err := NewInterval("age", 0, 99, []float64{5, 10, 20, 50})
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxLevel() != 5 {
		t.Errorf("MaxLevel = %d, want 5", h.MaxLevel())
	}
	if h.DomainSize() != 100 {
		t.Errorf("DomainSize = %d", h.DomainSize())
	}
	if h.Min() != 0 || h.Max() != 99 {
		t.Errorf("bounds = %v..%v", h.Min(), h.Max())
	}
	cases := []struct {
		value string
		level int
		want  string
	}{
		{"37", 0, "37"},
		{"37", 1, "[35-40)"},
		{"37", 2, "[30-40)"},
		{"37", 3, "[20-40)"},
		{"37", 4, "[0-50)"},
		{"37", 5, "*"},
		{"99", 1, "[95-100)"},
		{"0", 1, "[0-5)"},
	}
	for _, c := range cases {
		got, err := h.Generalize(c.value, c.level)
		if err != nil {
			t.Fatalf("Generalize(%q,%d): %v", c.value, c.level, err)
		}
		if got != c.want {
			t.Errorf("Generalize(%q,%d) = %q, want %q", c.value, c.level, got, c.want)
		}
	}
	if !h.Contains("50") || h.Contains("200") || h.Contains("abc") {
		t.Error("Contains wrong")
	}
	if _, err := h.Generalize("200", 1); !errors.Is(err, ErrUnknownValue) {
		t.Errorf("out of range error = %v", err)
	}
	if _, err := h.Generalize("37", 99); !errors.Is(err, ErrLevel) {
		t.Errorf("bad level error = %v", err)
	}
	if _, err := h.GroupSize("abc", 1); !errors.Is(err, ErrUnknownValue) {
		t.Errorf("GroupSize unknown error = %v", err)
	}
	if _, err := h.GroupSize("10", -1); !errors.Is(err, ErrLevel) {
		t.Errorf("GroupSize bad level error = %v", err)
	}
}

func TestIntervalGroupSize(t *testing.T) {
	h := MustInterval("age", 0, 99, []float64{5, 10, 20, 50})
	cases := []struct {
		value string
		level int
		want  int
	}{
		{"37", 0, 1},
		{"37", 1, 5},
		{"37", 2, 10},
		{"37", 4, 50},
		{"37", 5, 100},
	}
	for _, c := range cases {
		got, err := h.GroupSize(c.value, c.level)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("GroupSize(%q,%d) = %d, want %d", c.value, c.level, got, c.want)
		}
	}
}

func TestIntervalErrors(t *testing.T) {
	if _, err := NewInterval("", 0, 10, []float64{1}); err == nil {
		t.Error("empty attribute accepted")
	}
	if _, err := NewInterval("x", 10, 0, []float64{1}); err == nil {
		t.Error("inverted domain accepted")
	}
	if _, err := NewInterval("x", 0, 10, nil); err == nil {
		t.Error("no widths accepted")
	}
	if _, err := NewInterval("x", 0, 10, []float64{5, 5}); err == nil {
		t.Error("non-increasing widths accepted")
	}
}

func TestParseInterval(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi float64
		ok     bool
	}{
		{"[20-30)", 20, 30, true},
		{"[0-5)", 0, 5, true},
		{"42", 42, 42, true},
		{"*", 0, 0, false},
		{"", 0, 0, false},
		{"garbage", 0, 0, false},
		{"[a-b)", 0, 0, false},
		{"[-10--5)", -10, -5, true},
	}
	for _, c := range cases {
		lo, hi, ok := ParseInterval(c.in)
		if ok != c.ok || (ok && (lo != c.lo || hi != c.hi)) {
			t.Errorf("ParseInterval(%q) = %v,%v,%v want %v,%v,%v", c.in, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}

// TestParseIntervalShapes covers the values whose shape decides between
// the number and the interval branch: NaN and padded numbers parse as
// degenerate intervals, padded intervals parse, "*" and broken intervals do
// not. Neither branch allocates.
func TestParseIntervalShapes(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi float64
		ok     bool
	}{
		{"NaN", math.NaN(), math.NaN(), true},
		{" 42 ", 42, 42, true},
		{"\t-3.5", -3.5, -3.5, true},
		{"1e3", 1000, 1000, true},
		{"Inf", math.Inf(1), math.Inf(1), true},
		{" [20-30) ", 20, 30, true},
		{"[-10--5)", -10, -5, true},
		{"[1e-3-2)", 0.001, 2, true},
		{"[1.5-2.5)", 1.5, 2.5, true},
		{"*", 0, 0, false},
		{" * ", 0, 0, false},
		{"[3-7", 0, 0, false},
		{"[37)", 0, 0, false},
		{"[", 0, 0, false},
		{"-", 0, 0, false},
	}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	for _, c := range cases {
		lo, hi, ok := ParseInterval(c.in)
		if ok != c.ok || (ok && (!same(lo, c.lo) || !same(hi, c.hi))) {
			t.Errorf("ParseInterval(%q) = %v,%v,%v want %v,%v,%v", c.in, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
	for _, in := range []string{"[20-30)", "[-10--5)", "42", "*"} {
		if n := testing.AllocsPerRun(100, func() { ParseInterval(in) }); n != 0 {
			t.Errorf("ParseInterval(%q) allocates %v times, want 0", in, n)
		}
	}
}

func TestIntervalGeneralizeParseRoundTrip(t *testing.T) {
	h := MustInterval("age", 0, 99, []float64{5, 10, 25})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		v := rng.Intn(100)
		level := 1 + rng.Intn(3)
		g, err := h.Generalize(fmt.Sprint(v), level)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, ok := ParseInterval(g)
		if !ok {
			t.Fatalf("ParseInterval(%q) failed", g)
		}
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d not inside its own interval %q", v, g)
		}
	}
}

func TestPrefixCategory(t *testing.T) {
	h, err := NewPrefixCategory("zip", []string{"30301", "30302", "30455", "31200"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxLevel() != 4 { // 3 mask levels + suppression
		t.Errorf("MaxLevel = %d", h.MaxLevel())
	}
	g, _ := h.Generalize("30301", 1)
	if g != "3030*" {
		t.Errorf("level1 = %q", g)
	}
	g, _ = h.Generalize("30301", 3)
	if g != "30***" {
		t.Errorf("level3 = %q", g)
	}
	g, _ = h.Generalize("30301", 4)
	if g != "*" {
		t.Errorf("level4 = %q", g)
	}
	n, _ := h.GroupSize("30301", 2)
	if n != 2 { // 303** covers 30301 and 30302 (30455 maps to 304**)
		t.Errorf("GroupSize level2 = %d", n)
	}
	n, _ = h.GroupSize("30301", 3)
	if n != 3 { // 30*** covers 30301, 30302, 30455
		t.Errorf("GroupSize level3 = %d", n)
	}
	if _, err := NewPrefixCategory("zip", []string{"1", "22"}, 0); err == nil {
		t.Error("mixed-width domain accepted")
	}
	if _, err := NewPrefixCategory("zip", nil, 0); !errors.Is(err, ErrEmptyDomain) {
		t.Errorf("empty domain error = %v", err)
	}
	// maskLevels <= 0 defaults to full width.
	h2, err := NewPrefixCategory("zip", []string{"123", "456"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.MaxLevel() != 4 {
		t.Errorf("default mask levels MaxLevel = %d", h2.MaxLevel())
	}
}

func TestSet(t *testing.T) {
	age := MustInterval("age", 0, 99, []float64{10, 20})
	sex, _ := NewFlatCategory("sex", []string{"male", "female"})
	s, err := NewSet(age, sex)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has("age") || s.Has("zip") {
		t.Error("Has wrong")
	}
	if _, err := s.Get("zip"); !errors.Is(err, ErrNoHierarchy) {
		t.Errorf("Get(zip) error = %v", err)
	}
	h, err := s.Get("age")
	if err != nil || h.Attribute() != "age" {
		t.Errorf("Get(age) = %v, %v", h, err)
	}
	if got := len(s.Attributes()); got != 2 {
		t.Errorf("Attributes len = %d", got)
	}
	levels, err := s.MaxLevels([]string{"age", "sex"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(levels, []int{3, 1}) {
		t.Errorf("MaxLevels = %v", levels)
	}
	if _, err := s.MaxLevels([]string{"zip"}); err == nil {
		t.Error("MaxLevels with missing attribute succeeded")
	}
	s2 := s.Add(MustInterval("hours", 0, 99, []float64{8}))
	if !s2.Has("hours") || s.Has("hours") {
		t.Error("Add should not mutate the original set")
	}
	if _, err := NewSet(age, age); err == nil {
		t.Error("duplicate hierarchies accepted")
	}
	if _, err := NewSet(nil); err == nil {
		t.Error("nil hierarchy accepted")
	}
}

func TestValidate(t *testing.T) {
	sex, _ := NewFlatCategory("sex", []string{"male", "female"})
	missing := Validate(sex, []string{"male", "other", "female"})
	if !reflect.DeepEqual(missing, []string{"other"}) {
		t.Errorf("Validate = %v", missing)
	}
	if got := Validate(sex, []string{"male"}); got != nil {
		t.Errorf("Validate full coverage = %v", got)
	}
}

// Property: generalization is monotone — the group size never shrinks as the
// level increases, and every value's generalization at the max level is "*".
func TestGeneralizationMonotoneProperty(t *testing.T) {
	h := sampleCategory(t)
	values := h.Domain()
	f := func(idx uint8) bool {
		v := values[int(idx)%len(values)]
		prev := 0
		for l := 0; l <= h.MaxLevel(); l++ {
			n, err := h.GroupSize(v, l)
			if err != nil || n < prev {
				return false
			}
			prev = n
		}
		top, err := h.Generalize(v, h.MaxLevel())
		return err == nil && top == SuppressedValue
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interval generalization always contains the original value and
// widths grow with level.
func TestIntervalContainmentProperty(t *testing.T) {
	h := MustInterval("v", 0, 1000, []float64{7, 21, 100})
	f := func(raw uint16) bool {
		v := int(raw) % 1001
		prevSpan := 0.0
		for l := 1; l <= 3; l++ {
			g, err := h.Generalize(fmt.Sprint(v), l)
			if err != nil {
				return false
			}
			lo, hi, ok := ParseInterval(g)
			if !ok || float64(v) < lo || float64(v) >= hi {
				return false
			}
			if hi-lo < prevSpan {
				return false
			}
			prevSpan = hi - lo
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

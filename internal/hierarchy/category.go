package hierarchy

import (
	"fmt"
	"sort"
)

// CategoryHierarchy is a taxonomy-based hierarchy for categorical attributes.
// It is defined by one generalization path per leaf value: the value itself at
// level 0 followed by its ancestors up to the root. All paths must have the
// same length so the hierarchy forms a balanced tree, which is what
// full-domain recoding requires.
type CategoryHierarchy struct {
	attr   string
	levels int // number of generalization steps above level 0
	// paths[value][l] is the generalization of value at level l+1.
	paths map[string][]string
	// groupSizes[level][generalizedValue] counts leaves under that value.
	groupSizes []map[string]int
}

// NewCategory builds a categorical hierarchy from per-value generalization
// paths. Each path lists the ancestors of the value from level 1 upward; all
// paths must have equal length and end in a common root. A final suppression
// level mapping everything to "*" is appended automatically when the supplied
// root is not already "*".
func NewCategory(attr string, paths map[string][]string) (*CategoryHierarchy, error) {
	if attr == "" {
		return nil, fmt.Errorf("hierarchy: empty attribute name")
	}
	if len(paths) == 0 {
		return nil, ErrEmptyDomain
	}
	depth := -1
	root := ""
	for v, p := range paths {
		if depth == -1 {
			depth = len(p)
			if depth > 0 {
				root = p[depth-1]
			}
		}
		if len(p) != depth {
			return nil, fmt.Errorf("hierarchy: value %q has path length %d, want %d", v, len(p), depth)
		}
		if depth > 0 && p[depth-1] != root {
			return nil, fmt.Errorf("hierarchy: value %q has root %q, want %q", v, p[depth-1], root)
		}
	}
	h := &CategoryHierarchy{attr: attr, paths: make(map[string][]string, len(paths))}
	needSuppression := root != SuppressedValue
	for v, p := range paths {
		cp := make([]string, 0, depth+1)
		cp = append(cp, p...)
		if needSuppression {
			cp = append(cp, SuppressedValue)
		}
		h.paths[v] = cp
	}
	h.levels = depth
	if needSuppression {
		h.levels++
	}
	h.buildGroupSizes()
	return h, nil
}

// MustCategory is like NewCategory but panics on error.
func MustCategory(attr string, paths map[string][]string) *CategoryHierarchy {
	h, err := NewCategory(attr, paths)
	if err != nil {
		panic(err)
	}
	return h
}

// NewFlatCategory builds a two-level hierarchy in which every value
// generalizes directly to "*". It is the default for categorical attributes
// without a domain taxonomy.
func NewFlatCategory(attr string, domain []string) (*CategoryHierarchy, error) {
	if len(domain) == 0 {
		return nil, ErrEmptyDomain
	}
	paths := make(map[string][]string, len(domain))
	for _, v := range domain {
		paths[v] = []string{SuppressedValue}
	}
	return NewCategory(attr, paths)
}

// NewGroupedCategory builds a three-level hierarchy from named groups of leaf
// values: value -> group -> "*". Every leaf must appear in exactly one group.
func NewGroupedCategory(attr string, groups map[string][]string) (*CategoryHierarchy, error) {
	paths := make(map[string][]string)
	for group, leaves := range groups {
		for _, v := range leaves {
			if _, dup := paths[v]; dup {
				return nil, fmt.Errorf("hierarchy: value %q appears in more than one group", v)
			}
			paths[v] = []string{group, SuppressedValue}
		}
	}
	return NewCategory(attr, paths)
}

func (h *CategoryHierarchy) buildGroupSizes() {
	h.groupSizes = make([]map[string]int, h.levels+1)
	for l := 0; l <= h.levels; l++ {
		h.groupSizes[l] = make(map[string]int)
	}
	for v, p := range h.paths {
		h.groupSizes[0][v]++
		for l := 1; l <= h.levels; l++ {
			h.groupSizes[l][p[l-1]]++
		}
	}
}

// Attribute implements Hierarchy.
func (h *CategoryHierarchy) Attribute() string { return h.attr }

// MaxLevel implements Hierarchy.
func (h *CategoryHierarchy) MaxLevel() int { return h.levels }

// DomainSize implements Hierarchy.
func (h *CategoryHierarchy) DomainSize() int { return len(h.paths) }

// Contains implements Hierarchy.
func (h *CategoryHierarchy) Contains(value string) bool {
	_, ok := h.paths[value]
	return ok
}

// Domain returns the sorted leaf domain of the hierarchy.
func (h *CategoryHierarchy) Domain() []string {
	out := make([]string, 0, len(h.paths))
	for v := range h.paths {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Generalize implements Hierarchy.
func (h *CategoryHierarchy) Generalize(value string, level int) (string, error) {
	if err := checkLevel(level, h.levels); err != nil {
		return "", err
	}
	if level == 0 {
		if !h.Contains(value) {
			return "", fmt.Errorf("%w: %q (attribute %q)", ErrUnknownValue, value, h.attr)
		}
		return value, nil
	}
	p, ok := h.paths[value]
	if !ok {
		return "", fmt.Errorf("%w: %q (attribute %q)", ErrUnknownValue, value, h.attr)
	}
	return p[level-1], nil
}

// GroupSize implements Hierarchy.
func (h *CategoryHierarchy) GroupSize(value string, level int) (int, error) {
	g, err := h.Generalize(value, level)
	if err != nil {
		return 0, err
	}
	return h.groupSizes[level][g], nil
}

// GroupSizeOfGeneralized returns the number of leaves covered by an already
// generalized value, searching all levels. Unknown values count as covering
// the whole domain (they are treated as suppressed).
func (h *CategoryHierarchy) GroupSizeOfGeneralized(generalized string) int {
	for l := 0; l <= h.levels; l++ {
		if n, ok := h.groupSizes[l][generalized]; ok {
			return n
		}
	}
	return h.DomainSize()
}

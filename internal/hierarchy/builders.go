package hierarchy

import (
	"fmt"
	"strings"
)

// NewPrefixCategory builds the classic zip-code-style hierarchy over a
// categorical domain of fixed-width strings: each level masks one more
// trailing character with '*', and the final level is full suppression.
// For example with width 5: "30301" -> "3030*" -> "303**" -> "30***" ->
// "3****" -> "*".
//
// maskLevels limits how many characters are masked before jumping to full
// suppression; pass the string width to mask everything one character at a
// time.
func NewPrefixCategory(attr string, domain []string, maskLevels int) (*CategoryHierarchy, error) {
	if len(domain) == 0 {
		return nil, ErrEmptyDomain
	}
	width := len(domain[0])
	for _, v := range domain {
		if len(v) != width {
			return nil, fmt.Errorf("hierarchy: prefix hierarchy requires fixed-width values; %q has width %d, want %d", v, len(v), width)
		}
	}
	if maskLevels <= 0 || maskLevels > width {
		maskLevels = width
	}
	paths := make(map[string][]string, len(domain))
	for _, v := range domain {
		p := make([]string, 0, maskLevels+1)
		for l := 1; l <= maskLevels; l++ {
			p = append(p, v[:width-l]+strings.Repeat("*", l))
		}
		p = append(p, SuppressedValue)
		paths[v] = p
	}
	return NewCategory(attr, paths)
}

// Validate checks that every value of the given column domain is covered by
// the hierarchy, returning the uncovered values (empty when fully covered).
func Validate(h Hierarchy, domain []string) []string {
	var missing []string
	for _, v := range domain {
		if !h.Contains(v) {
			missing = append(missing, v)
		}
	}
	return missing
}

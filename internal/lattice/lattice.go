// Package lattice models the full-domain generalization lattice searched by
// Samarati's algorithm, Incognito and related full-domain recoding schemes.
//
// A lattice node is a vector of generalization levels, one per
// quasi-identifier attribute, bounded component-wise by the maximum level of
// that attribute's hierarchy. Node (0,0,...,0) is the original table; the top
// node generalizes every attribute to its root. The lattice is ordered by the
// component-wise <= relation; the *height* of a node is the sum of its
// components, which is the classic "minimal generalization" cost used by
// Samarati's binary search.
package lattice

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Node is a vector of generalization levels, one per attribute of the
// lattice, in lattice attribute order.
type Node []int

// Height returns the sum of the node's levels.
func (n Node) Height() int {
	h := 0
	for _, l := range n {
		h += l
	}
	return h
}

// Key returns a canonical string form usable as a map key.
func (n Node) Key() string {
	parts := make([]string, len(n))
	for i, l := range n {
		parts[i] = fmt.Sprint(l)
	}
	return strings.Join(parts, ",")
}

// Dominates reports whether n >= o component-wise (n is at least as general
// as o in every attribute).
func (n Node) Dominates(o Node) bool {
	if len(n) != len(o) {
		return false
	}
	for i := range n {
		if n[i] < o[i] {
			return false
		}
	}
	return true
}

// Lattice is the full-domain generalization lattice for a fixed attribute
// order with fixed per-attribute maximum levels.
type Lattice struct {
	maxLevels []int
}

// New builds a lattice over the given attributes with the given per-attribute
// maximum generalization levels.
func New(attrs []string, maxLevels []int) (*Lattice, error) {
	if len(attrs) == 0 {
		return nil, errors.New("lattice: no attributes")
	}
	if len(attrs) != len(maxLevels) {
		return nil, fmt.Errorf("lattice: %d attributes but %d level bounds", len(attrs), len(maxLevels))
	}
	for i, m := range maxLevels {
		if m < 0 {
			return nil, fmt.Errorf("lattice: negative max level %d for %q", m, attrs[i])
		}
	}
	return &Lattice{maxLevels: slices.Clone(maxLevels)}, nil
}

// Top returns the node with every attribute at its maximum level.
func (l *Lattice) Top() Node {
	return slices.Clone(Node(l.maxLevels))
}

// MaxHeight returns the height of the top node.
func (l *Lattice) MaxHeight() int { return l.Top().Height() }

// Size returns the total number of nodes in the lattice.
func (l *Lattice) Size() int {
	n := 1
	for _, m := range l.maxLevels {
		n *= m + 1
	}
	return n
}

// Predecessors returns the immediate specializations of n: every node
// obtained by decrementing exactly one positive component.
func (l *Lattice) Predecessors(n Node) []Node {
	var out []Node
	for i := range n {
		if n[i] > 0 {
			p := slices.Clone(n)
			p[i]--
			out = append(out, p)
		}
	}
	return out
}

// NodesAtHeight enumerates all nodes whose components sum to h, in
// deterministic lexicographic order. Samarati's algorithm evaluates each
// height layer; Incognito's breadth-first search uses successive layers.
func (l *Lattice) NodesAtHeight(h int) []Node {
	var out []Node
	cur := make(Node, len(l.maxLevels))
	var rec func(dim, remaining int)
	rec = func(dim, remaining int) {
		if dim == len(l.maxLevels) {
			if remaining == 0 {
				out = append(out, slices.Clone(cur))
			}
			return
		}
		max := l.maxLevels[dim]
		if max > remaining {
			max = remaining
		}
		for v := 0; v <= max; v++ {
			cur[dim] = v
			rec(dim+1, remaining-v)
		}
		cur[dim] = 0
	}
	if h >= 0 && h <= l.MaxHeight() {
		rec(0, h)
	}
	return out
}

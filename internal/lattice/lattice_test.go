package lattice

import (
	"slices"
	"testing"
	"testing/quick"
)

func newTestLattice(t *testing.T) *Lattice {
	t.Helper()
	l, err := New([]string{"age", "zip", "sex"}, []int{2, 3, 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty lattice accepted")
	}
	if _, err := New([]string{"a"}, []int{1, 2}); err == nil {
		t.Error("mismatched arity accepted")
	}
	if _, err := New([]string{"a"}, []int{-1}); err == nil {
		t.Error("negative max level accepted")
	}
}

func TestBasics(t *testing.T) {
	l := newTestLattice(t)
	if !slices.Equal(l.Top(), Node{2, 3, 1}) {
		t.Errorf("Top = %v", l.Top())
	}
	top := l.Top()
	top[0] = 0
	if l.Top()[0] != 2 {
		t.Error("Top aliases the lattice's levels")
	}
	if l.MaxHeight() != 6 {
		t.Errorf("MaxHeight = %d", l.MaxHeight())
	}
	if l.Size() != 3*4*2 {
		t.Errorf("Size = %d", l.Size())
	}
}

func TestNodeHelpers(t *testing.T) {
	n := Node{1, 2, 0}
	if n.Height() != 3 {
		t.Errorf("Height = %d", n.Height())
	}
	if n.Key() != "1,2,0" {
		t.Errorf("Key = %q", n.Key())
	}
	if !Node([]int{2, 2, 1}).Dominates(n) || n.Dominates(Node{2, 2, 1}) {
		t.Error("Dominates wrong")
	}
	if n.Dominates(Node{1, 2}) {
		t.Error("Dominates should be false for arity mismatch")
	}
}

func TestPredecessors(t *testing.T) {
	l := newTestLattice(t)
	pred := l.Predecessors(Node{0, 1, 1})
	if len(pred) != 2 || !slices.Equal(pred[0], Node{0, 0, 1}) || !slices.Equal(pred[1], Node{0, 1, 0}) {
		t.Errorf("Predecessors = %v", pred)
	}
	if pred := l.Predecessors(Node{0, 0, 0}); len(pred) != 0 {
		t.Errorf("bottom predecessors = %v", pred)
	}
}

func TestNodesAtHeight(t *testing.T) {
	l := newTestLattice(t)
	h0 := l.NodesAtHeight(0)
	if len(h0) != 1 || !slices.Equal(h0[0], Node{0, 0, 0}) {
		t.Errorf("height 0 = %v", h0)
	}
	h1 := l.NodesAtHeight(1)
	if len(h1) != 3 {
		t.Errorf("height 1 = %v", h1)
	}
	top := l.NodesAtHeight(l.MaxHeight())
	if len(top) != 1 || !slices.Equal(top[0], l.Top()) {
		t.Errorf("top layer = %v", top)
	}
	if got := l.NodesAtHeight(-1); got != nil {
		t.Errorf("negative height = %v", got)
	}
	if got := l.NodesAtHeight(99); got != nil {
		t.Errorf("over height = %v", got)
	}
}

// Property: the height layers partition the lattice — they hold Size()
// distinct in-bounds nodes, each layer in lexicographic order — and every
// predecessor of a layer-h node lies one layer down and is dominated by it.
func TestLayersPartitionLatticeProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		maxLevels := []int{int(a % 4), int(b % 4), int(c % 4)}
		l, err := New([]string{"x", "y", "z"}, maxLevels)
		if err != nil {
			return false
		}
		seen := make(map[string]bool)
		for h := 0; h <= l.MaxHeight(); h++ {
			layer := l.NodesAtHeight(h)
			if !slices.IsSortedFunc(layer, slices.Compare[Node]) {
				return false
			}
			for _, n := range layer {
				if n.Height() != h || seen[n.Key()] || !l.Top().Dominates(n) || !n.Dominates(Node{0, 0, 0}) {
					return false
				}
				seen[n.Key()] = true
				for _, p := range l.Predecessors(n) {
					if p.Height() != h-1 || !n.Dominates(p) {
						return false
					}
				}
			}
		}
		return len(seen) == l.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the layer sizes sum to the lattice size.
func TestLayerSizesSumProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		ma, mb, mc := int(a%4), int(b%4), int(c%4)
		l, err := New([]string{"x", "y", "z"}, []int{ma, mb, mc})
		if err != nil {
			return false
		}
		total := 0
		for h := 0; h <= l.MaxHeight(); h++ {
			total += len(l.NodesAtHeight(h))
		}
		return total == l.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

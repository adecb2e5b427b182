// Package sp implements the series-parallel machinery of the paper:
// decomposition trees (§II-C), the original algorithm that grows a forest
// of series-parallel decomposition trees for general DAGs (§III-C, Alg. 1)
// and the extraction of the mapping subgraph set from such a forest.
package sp

import (
	"fmt"
	"strings"

	"spmap/internal/graph"
)

// Kind discriminates decomposition-tree nodes.
type Kind uint8

// Tree node kinds: a leaf is an edge of the original graph; inner nodes
// are series or parallel operations.
const (
	LeafOp Kind = iota
	SeriesOp
	ParallelOp
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case LeafOp:
		return "leaf"
	case SeriesOp:
		return "series"
	case ParallelOp:
		return "parallel"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Virtual edge-index markers for the epsilon edges inserted by Alg. 1.
const (
	VirtualInEdge  = -1 // (epsilon, source)
	VirtualOutEdge = -2 // (sink, epsilon)
)

// Tree is an n-ary series-parallel decomposition tree. Every tree
// represents a subgraph with a distinguished start node U and end node V
// and can therefore be treated equivalently to an edge (U, V) (paper
// notation T =^ [u, v]).
type Tree struct {
	Kind Kind
	// U and V are the start and end nodes of the represented subgraph. U
	// or V is graph.None for the virtual node epsilon.
	U, V graph.NodeID
	// EdgeIndex is, for leaves, the index of the represented edge in the
	// original DAG, or VirtualInEdge/VirtualOutEdge.
	EdgeIndex int
	// Children of an inner operation. Series children are ordered head to
	// tail; parallel children are unordered branches sharing U and V.
	Children []*Tree

	size    int // number of leaf edges in the subtree
	outsize int // number of leaf edges with endpoint V (paper's outsize)
}

// NewLeaf returns a leaf tree for edge (u, v) with the given original edge
// index (or a Virtual*Edge marker).
func NewLeaf(u, v graph.NodeID, edgeIndex int) *Tree {
	return &Tree{Kind: LeafOp, U: u, V: v, EdgeIndex: edgeIndex, size: 1, outsize: 1}
}

// Size returns the number of leaf edges in the tree.
func (t *Tree) Size() int { return t.size }

// series concatenates two trees head to tail (a.V must equal b.U); it
// flattens nested series operations so inner nodes are maximal n-ary
// operations as in the paper's figures.
func series(a, b *Tree) *Tree {
	if a.V != b.U {
		panic(fmt.Sprintf("sp: series join mismatch: %d != %d", a.V, b.U))
	}
	if a.Kind == SeriesOp {
		if b.Kind == SeriesOp {
			a.Children = append(a.Children, b.Children...)
		} else {
			a.Children = append(a.Children, b)
		}
		a.V = b.V
		a.size += b.size
		a.outsize = b.outsize
		return a
	}
	t := &Tree{
		Kind: SeriesOp, U: a.U, V: b.V,
		size: a.size + b.size, outsize: b.outsize,
	}
	if b.Kind == SeriesOp {
		t.Children = append(append(t.Children, a), b.Children...)
	} else {
		t.Children = []*Tree{a, b}
	}
	return t
}

// parallel merges trees sharing both endpoints into a parallel operation,
// flattening nested parallel operations with identical endpoints.
func parallel(ts []*Tree) *Tree {
	if len(ts) < 2 {
		panic("sp: parallel merge needs at least two trees")
	}
	u, v := ts[0].U, ts[0].V
	t := &Tree{Kind: ParallelOp, U: u, V: v}
	for _, c := range ts {
		if c.U != u || c.V != v {
			panic(fmt.Sprintf("sp: parallel merge endpoint mismatch (%d,%d) vs (%d,%d)", c.U, c.V, u, v))
		}
		if c.Kind == ParallelOp {
			t.Children = append(t.Children, c.Children...)
		} else {
			t.Children = append(t.Children, c)
		}
		t.size += c.size
		t.outsize += c.outsize
	}
	return t
}

// Walk visits t and all descendants in pre-order.
func (t *Tree) Walk(fn func(*Tree)) {
	fn(t)
	for _, c := range t.Children {
		c.Walk(fn)
	}
}

// Nodes returns the set of graph nodes covered by the tree (including U
// and V, excluding the virtual epsilon node).
func (t *Tree) Nodes() []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	t.Walk(func(n *Tree) {
		if n.Kind != LeafOp {
			return
		}
		if n.U != graph.None {
			seen[n.U] = true
		}
		if n.V != graph.None {
			seen[n.V] = true
		}
	})
	out := make([]graph.NodeID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sortIDs(out)
	return out
}

// EdgeIndices returns the original-graph edge indices of all real leaves.
func (t *Tree) EdgeIndices() []int {
	var out []int
	t.Walk(func(n *Tree) {
		if n.Kind == LeafOp && n.EdgeIndex >= 0 {
			out = append(out, n.EdgeIndex)
		}
	})
	return out
}

// String renders the tree in a compact bracketed form, e.g.
// S(0-1 P(S(1-2 2-3) 1-3) 3-5).
func (t *Tree) String() string {
	var b strings.Builder
	t.render(&b)
	return b.String()
}

func (t *Tree) render(b *strings.Builder) {
	name := func(v graph.NodeID) string {
		if v == graph.None {
			return "eps"
		}
		return fmt.Sprint(int(v))
	}
	switch t.Kind {
	case LeafOp:
		fmt.Fprintf(b, "%s-%s", name(t.U), name(t.V))
	case SeriesOp, ParallelOp:
		if t.Kind == SeriesOp {
			b.WriteString("S(")
		} else {
			b.WriteString("P(")
		}
		for i, c := range t.Children {
			if i > 0 {
				b.WriteByte(' ')
			}
			c.render(b)
		}
		b.WriteByte(')')
	}
}

func sortIDs(s []graph.NodeID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

package graph

import (
	"errors"
	"fmt"
	"strings"

	"quorumselect/internal/ids"
)

// LineSubgraph is an acyclic subgraph of maximum degree 2 over the
// nodes {p_1, ..., p_n} — a disjoint union of simple paths
// (Definition 1). It designates a leader: the minimum node of degree 0.
//
// Note the paper's convention: a line subgraph "contains" a node only
// if the node has non-zero degree; the node set is always all of Π.
type LineSubgraph struct {
	n     int
	edges []Edge
	deg   []int
	comp  []int // union-find parent for cycle detection
}

// NewLineSubgraph returns the empty line subgraph on n nodes (every
// node has degree 0, so the designated leader is p_1).
func NewLineSubgraph(n int) *LineSubgraph {
	if n <= 0 || n > MaxNodes {
		panic(fmt.Sprintf("graph: node count %d outside (0,%d]", n, MaxNodes))
	}
	l := &LineSubgraph{
		n:    n,
		deg:  make([]int, n),
		comp: make([]int, n),
	}
	for i := range l.comp {
		l.comp[i] = i
	}
	return l
}

// ErrNotLine is returned when an edge addition would violate the line
// subgraph invariants (degree > 2 or a cycle).
var ErrNotLine = errors.New("graph: edge violates line subgraph invariants")

func (l *LineSubgraph) find(x int) int {
	for l.comp[x] != x {
		l.comp[x] = l.comp[l.comp[x]]
		x = l.comp[x]
	}
	return x
}

// AddEdge inserts {u, v}, returning ErrNotLine if the result would not
// be a line subgraph (self-loop, duplicate edge forming a cycle,
// degree exceeding 2, or closing a path into a cycle).
func (l *LineSubgraph) AddEdge(u, v ids.ProcessID) error {
	if u == v {
		return fmt.Errorf("%w: self-loop on %s", ErrNotLine, u)
	}
	if !u.Valid(l.n) || !v.Valid(l.n) {
		return fmt.Errorf("%w: edge (%s,%s) outside Π with n=%d", ErrNotLine, u, v, l.n)
	}
	ui, vi := int(u)-1, int(v)-1
	if l.deg[ui] >= 2 || l.deg[vi] >= 2 {
		return fmt.Errorf("%w: degree bound at edge (%s,%s)", ErrNotLine, u, v)
	}
	ru, rv := l.find(ui), l.find(vi)
	if ru == rv {
		return fmt.Errorf("%w: cycle closed by edge (%s,%s)", ErrNotLine, u, v)
	}
	l.comp[ru] = rv
	l.deg[ui]++
	l.deg[vi]++
	l.edges = append(l.edges, Edge{U: u, V: v}.Normalize())
	return nil
}

// N returns the number of nodes.
func (l *LineSubgraph) N() int { return l.n }

// Degree returns δ_L(p).
func (l *LineSubgraph) Degree(p ids.ProcessID) int {
	if !p.Valid(l.n) {
		panic(fmt.Sprintf("graph: process %s outside Π with n=%d", p, l.n))
	}
	return l.deg[int(p)-1]
}

// ContainsNode reports whether p has non-zero degree (the paper's
// notion of a line subgraph "containing" a node, §IX).
func (l *LineSubgraph) ContainsNode(p ids.ProcessID) bool { return l.Degree(p) > 0 }

// NodeCount returns the number of nodes with non-zero degree.
func (l *LineSubgraph) NodeCount() int {
	count := 0
	for _, d := range l.deg {
		if d > 0 {
			count++
		}
	}
	return count
}

// Edges returns the edges in canonical sorted order.
func (l *LineSubgraph) Edges() []Edge {
	out := make([]Edge, len(l.edges))
	copy(out, l.edges)
	SortEdges(out)
	return out
}

// Leader returns l_L = min{i ∈ Π : δ_L(i) = 0}, or ids.None if every
// node is covered (no leader is designated).
func (l *LineSubgraph) Leader() ids.ProcessID {
	for i, d := range l.deg {
		if d == 0 {
			return ids.ProcessID(i + 1)
		}
	}
	return ids.None
}

// PossibleFollowers returns, sorted, every node that is a possible
// follower per Definition 2: a node is a possible follower unless it is
// connected (in L) to two nodes of degree 1. The designated leader is
// itself a possible follower by this definition; callers exclude it
// per Definition 3 a).
func (l *LineSubgraph) PossibleFollowers() []ids.ProcessID {
	degOneNeighbors := make([]int, l.n)
	for _, e := range l.edges {
		ui, vi := int(e.U)-1, int(e.V)-1
		if l.deg[vi] == 1 {
			degOneNeighbors[ui]++
		}
		if l.deg[ui] == 1 {
			degOneNeighbors[vi]++
		}
	}
	var out []ids.ProcessID
	for i := 0; i < l.n; i++ {
		if degOneNeighbors[i] < 2 {
			out = append(out, ids.ProcessID(i+1))
		}
	}
	return out
}

// IsPossibleFollower reports whether p is a possible follower.
func (l *LineSubgraph) IsPossibleFollower(p ids.ProcessID) bool {
	if !p.Valid(l.n) {
		return false
	}
	count := 0
	for _, e := range l.edges {
		var other ids.ProcessID
		switch p {
		case e.U:
			other = e.V
		case e.V:
			other = e.U
		default:
			continue
		}
		if l.deg[int(other)-1] == 1 {
			count++
		}
	}
	return count < 2
}

// SubgraphOf reports whether every edge of l is an edge of g
// (Definition 3 b).
func (l *LineSubgraph) SubgraphOf(g *Graph) bool {
	if g.N() < l.n {
		return false
	}
	for _, e := range l.edges {
		if !g.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (l *LineSubgraph) Clone() *LineSubgraph {
	cp := NewLineSubgraph(l.n)
	cp.edges = append(cp.edges[:0], l.edges...)
	copy(cp.deg, l.deg)
	copy(cp.comp, l.comp)
	return cp
}

// String renders the line subgraph with its designated leader.
func (l *LineSubgraph) String() string {
	es := l.Edges()
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return fmt.Sprintf("L(leader=%s){%s}", l.Leader(), strings.Join(parts, " "))
}

// LineSubgraphFromEdges builds a line subgraph on n nodes from an edge
// list, returning ErrNotLine if the edges do not form one. Used to
// validate the L' carried inside FOLLOWERS messages (Definition 3 b).
func LineSubgraphFromEdges(n int, edges []Edge) (*LineSubgraph, error) {
	l := NewLineSubgraph(n)
	for _, e := range edges {
		if err := l.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// MaximalLineSubgraph computes a maximal line subgraph of g per
// Definition 1: a line subgraph whose designated leader is maximal over
// all line subgraphs of g. The witness subgraph is not unique (the
// paper: "two correct processes may compute different maximal line
// subgraphs"), but the leader is, which is all Agreement needs.
//
// The search tries leaders m = n, n−1, ..., 1: leader m requires a
// linear forest in G − p_m covering every node smaller than m. Because
// the builder only ever attaches edges to a currently-uncovered node,
// partial solutions are always acyclic and the backtracking is
// complete. m = 1 (the empty subgraph) always succeeds.
func MaximalLineSubgraph(g *Graph) *LineSubgraph {
	n := g.N()
	for m := n; m >= 2; m-- {
		if l, ok := coverLinearForest(g, m); ok {
			return l
		}
	}
	return NewLineSubgraph(n)
}

// coverLinearForest searches for a line subgraph of g in which every
// node smaller than m has degree ≥ 1 and node m has degree 0.
func coverLinearForest(g *Graph, m int) (*LineSubgraph, bool) {
	n := g.N()
	l := NewLineSubgraph(n)
	var walk func() bool
	walk = func() bool {
		// Find the smallest uncovered node below m.
		u := 0
		for u = 1; u < m; u++ {
			if l.deg[u-1] == 0 {
				break
			}
		}
		if u == m {
			return true // every node < m covered
		}
		up := ids.ProcessID(u)
		row := g.row(u - 1)
		for vi := ids.NextSetBit(row, 0, n); vi < n; vi = ids.NextSetBit(row, vi+1, n) {
			v := ids.ProcessID(vi + 1)
			if vi+1 == m {
				continue // node m must keep degree 0
			}
			if l.deg[vi] >= 2 {
				continue
			}
			// u is uncovered (degree 0), so this edge cannot close a
			// cycle; AddEdge still validates as defense in depth.
			if err := l.AddEdge(up, v); err != nil {
				continue
			}
			if walk() {
				return true
			}
			l.removeLastEdge()
		}
		return false
	}
	if walk() {
		return l, true
	}
	return nil, false
}

// removeLastEdge undoes the most recent AddEdge. Only used by the
// backtracking search; union-find components are rebuilt since union
// operations are not invertible.
func (l *LineSubgraph) removeLastEdge() {
	last := l.edges[len(l.edges)-1]
	l.edges = l.edges[:len(l.edges)-1]
	l.deg[int(last.U)-1]--
	l.deg[int(last.V)-1]--
	for i := range l.comp {
		l.comp[i] = i
	}
	for _, e := range l.edges {
		ru, rv := l.find(int(e.U)-1), l.find(int(e.V)-1)
		if ru != rv {
			l.comp[ru] = rv
		}
	}
}

// Package graph implements the suspect-graph machinery of the paper:
// simple undirected graphs over Π, lexicographically-first independent
// sets of a given size (Algorithm 1, §VI-B), vertex-cover duality
// (Theorem 4, Lemma 8), line subgraphs, maximal line subgraphs and
// possible followers (Definitions 1–2, §VIII).
//
// All subset-search subroutines are exact. The independent-set decision
// problem is NP-hard, but as the paper notes ("for small graphs, e.g.
// including only tenth of nodes, it is easy to compute"), exhaustive
// branch-and-bound is entirely adequate for consortium-scale n, and it
// is the only way to guarantee the deterministic lexicographic choice
// the algorithms rely on for agreement.
//
// Adjacency rows are multi-word bit vectors run on the ids word kernels
// (bit i of row u is the edge to p_{i+1}), so graphs scale to MaxNodes
// processes while the branch-and-bound inner loops stay word-parallel
// and allocation-free.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"quorumselect/internal/ids"
)

// MaxNodes bounds graph sizes. It is ids.MaxN, the capacity of a
// process set, so every set of graph nodes is an ids.ProcSet.
const MaxNodes = ids.MaxN

// Edge is an undirected edge between two processes. By convention the
// stored form has U < V; Normalize enforces it.
type Edge struct {
	U, V ids.ProcessID
}

// Normalize returns the edge with endpoints ordered U < V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// String renders the edge in paper notation, e.g. "(p3,p4)".
func (e Edge) String() string { return fmt.Sprintf("(%s,%s)", e.U, e.V) }

// Graph is a simple undirected graph on the processes {p_1, ..., p_n}.
// The zero value is unusable; construct with New.
type Graph struct {
	n     int
	words int
	adj   [][]uint64 // adj[i] is the neighbor row of p_{i+1}
	back  []uint64   // flat backing array for all rows (one allocation)
}

// New returns an empty graph on n nodes. It panics if n is outside
// (0, MaxNodes]; the paper's systems are consortium-scale.
func New(n int) *Graph {
	if n <= 0 || n > MaxNodes {
		panic(fmt.Sprintf("graph: node count %d outside (0,%d]", n, MaxNodes))
	}
	words := ids.WordsFor(n)
	back := make([]uint64, n*words)
	adj := make([][]uint64, n)
	for i := range adj {
		adj[i] = back[i*words : (i+1)*words]
	}
	return &Graph{n: n, words: words, adj: adj, back: back}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

func (g *Graph) check(p ids.ProcessID) int {
	if !p.Valid(g.n) {
		panic(fmt.Sprintf("graph: process %s outside Π with n=%d", p, g.n))
	}
	return int(p) - 1
}

// row exposes the raw adjacency row of node index i to package
// siblings (line.go); callers must not mutate it.
func (g *Graph) row(i int) []uint64 { return g.adj[i] }

// AddEdge inserts the undirected edge {u, v}. Self-loops are ignored
// (a process suspecting itself carries no information for selection).
func (g *Graph) AddEdge(u, v ids.ProcessID) {
	if u == v {
		return
	}
	ui, vi := g.check(u), g.check(v)
	ids.SetBit(g.adj[ui], vi)
	ids.SetBit(g.adj[vi], ui)
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v ids.ProcessID) {
	if u == v {
		return
	}
	ui, vi := g.check(u), g.check(v)
	ids.ClearBit(g.adj[ui], vi)
	ids.ClearBit(g.adj[vi], ui)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v ids.ProcessID) bool {
	if u == v {
		return false
	}
	ui, vi := g.check(u), g.check(v)
	return ids.TestBit(g.adj[ui], vi)
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u ids.ProcessID) int {
	return ids.OnesCount(g.adj[g.check(u)])
}

// Neighbors returns the sorted neighbors of u.
func (g *Graph) Neighbors(u ids.ProcessID) []ids.ProcessID {
	row := g.adj[g.check(u)]
	var out []ids.ProcessID
	for i := ids.NextSetBit(row, 0, g.n); i < g.n; i = ids.NextSetBit(row, i+1, g.n) {
		out = append(out, ids.ProcessID(i+1))
	}
	return out
}

// Edges returns all edges sorted by (U, V) with U < V.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for i := 0; i < g.n; i++ {
		row := g.adj[i]
		for j := ids.NextSetBit(row, i+1, g.n); j < g.n; j = ids.NextSetBit(row, j+1, g.n) {
			out = append(out, Edge{U: ids.ProcessID(i + 1), V: ids.ProcessID(j + 1)})
		}
	}
	return out
}

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, row := range g.adj {
		total += ids.OnesCount(row)
	}
	return total / 2
}

// Clone returns an independent copy of the graph.
func (g *Graph) Clone() *Graph {
	cp := New(g.n)
	copy(cp.back, g.back)
	return cp
}

// Equal reports whether two graphs have identical node and edge sets.
func (g *Graph) Equal(o *Graph) bool {
	if g.n != o.n {
		return false
	}
	for i := range g.back {
		if g.back[i] != o.back[i] {
			return false
		}
	}
	return true
}

// String renders the graph as its sorted edge list.
func (g *Graph) String() string {
	es := g.Edges()
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return fmt.Sprintf("G(n=%d){%s}", g.n, strings.Join(parts, " "))
}

// IsIndependentSet reports whether no two members of set are adjacent.
func (g *Graph) IsIndependentSet(set []ids.ProcessID) bool {
	scratch := getScratch(g.words)
	defer putScratch(scratch)
	mask := *scratch
	for _, p := range set {
		ids.SetBit(mask, g.check(p))
	}
	for _, p := range set {
		if ids.Intersects(g.adj[g.check(p)], mask) {
			return false
		}
	}
	return true
}

// IsVertexCover reports whether every edge has at least one endpoint in
// set (the dual view used in Theorem 4 and Lemma 8).
func (g *Graph) IsVertexCover(set []ids.ProcessID) bool {
	scratch := getScratch(g.words)
	defer putScratch(scratch)
	mask := *scratch
	for _, p := range set {
		ids.SetBit(mask, g.check(p))
	}
	for i := 0; i < g.n; i++ {
		if ids.TestBit(mask, i) {
			continue
		}
		// Node i is outside the cover: all its edges must be covered
		// by the other endpoint.
		if ids.AnyAndNot(g.adj[i], mask) {
			return false
		}
	}
	return true
}

// firstISet runs the lexicographic branch-and-bound for an independent
// set of size q, writing the chosen node indices into chosen (length q)
// and reporting success. Scratch conflict sets are pooled, so the
// search itself performs no allocations.
func (g *Graph) firstISet(q int, chosen []int) bool {
	scratch := getScratch((q + 1) * g.words)
	defer putScratch(scratch)
	buf := *scratch
	depth := 0
	// conflict(d) is the set of nodes excluded at depth d: everything
	// chosen so far plus all its neighbors.
	conflict := func(d int) []uint64 { return buf[d*g.words : (d+1)*g.words] }
	var walk func(next int) bool
	walk = func(next int) bool {
		if depth == q {
			return true
		}
		c := conflict(depth)
		// Prune: not enough candidates left.
		for v := ids.NextClearBit(c, next, g.n); v <= g.n-(q-depth); v = ids.NextClearBit(c, v+1, g.n) {
			chosen[depth] = v
			nc := conflict(depth + 1)
			copy(nc, c)
			ids.OrWords(nc, g.adj[v])
			ids.SetBit(nc, v)
			depth++
			if walk(v + 1) {
				return true
			}
			depth--
		}
		return false
	}
	return walk(0)
}

// FirstIndependentSet returns the lexicographically-first independent
// set of size q (as a sorted member list), or ok=false if none exists.
// This is the deterministic choice rule of Algorithm 1 line 31 that
// makes correct processes converge on the same quorum.
func (g *Graph) FirstIndependentSet(q int) (set []ids.ProcessID, ok bool) {
	if q < 0 || q > g.n {
		return nil, false
	}
	if q == 0 {
		return []ids.ProcessID{}, true
	}
	chosen := make([]int, q)
	if !g.firstISet(q, chosen) {
		return nil, false
	}
	out := make([]ids.ProcessID, q)
	for i, v := range chosen {
		out[i] = ids.ProcessID(v + 1)
	}
	return out, true
}

// HasIndependentSet reports whether an independent set of size q exists
// (Algorithm 1 line 27).
func (g *Graph) HasIndependentSet(q int) bool {
	if q < 0 || q > g.n {
		return false
	}
	if q == 0 {
		return true
	}
	chosen := make([]int, q)
	return g.firstISet(q, chosen)
}

// AllIndependentSets returns every independent set of exactly size q in
// lexicographic order. Exponential; intended for tests and the
// adversary's bookkeeping on small instances.
func (g *Graph) AllIndependentSets(q int) [][]ids.ProcessID {
	var out [][]ids.ProcessID
	if q < 0 || q > g.n {
		return out
	}
	if q == 0 {
		return [][]ids.ProcessID{{}}
	}
	scratch := getScratch((q + 1) * g.words)
	defer putScratch(scratch)
	buf := *scratch
	chosen := make([]int, q)
	depth := 0
	conflict := func(d int) []uint64 { return buf[d*g.words : (d+1)*g.words] }
	var walk func(next int)
	walk = func(next int) {
		if depth == q {
			set := make([]ids.ProcessID, q)
			for i, v := range chosen {
				set[i] = ids.ProcessID(v + 1)
			}
			out = append(out, set)
			return
		}
		c := conflict(depth)
		for v := ids.NextClearBit(c, next, g.n); v <= g.n-(q-depth); v = ids.NextClearBit(c, v+1, g.n) {
			chosen[depth] = v
			nc := conflict(depth + 1)
			copy(nc, c)
			ids.OrWords(nc, g.adj[v])
			ids.SetBit(nc, v)
			depth++
			walk(v + 1)
			depth--
		}
	}
	walk(0)
	return out
}

// FirstWeightedIndependentSet returns the lexicographically-first
// inclusion-minimal independent set whose weights (weights[i] belongs
// to p_{i+1}) sum to at least target, or ok=false if none exists. It
// generalizes FirstIndependentSet to weighted quorum systems: unit
// weights with target q reproduce its answer exactly on graphs that
// admit one.
//
// Minimality is enforced at the leaves: a lexicographic walk can reach
// the target carrying redundant light members (weights {1,5} with
// target 5 reaches 6 via {p1,p2}, but the minimal set is {p2}), so a
// leaf where some chosen member is not load-bearing is rejected and the
// search continues — the minimal set inside it is found on a later
// branch. Zero-weight nodes are never chosen.
func (g *Graph) FirstWeightedIndependentSet(weights []int, target int) (set []ids.ProcessID, ok bool) {
	if len(weights) != g.n {
		panic(fmt.Sprintf("graph: %d weights for n=%d nodes", len(weights), g.n))
	}
	if target <= 0 {
		return []ids.ProcessID{}, true
	}
	// Suffix sums prune branches that cannot reach the target even
	// taking every remaining node.
	suffix := make([]int, g.n+1)
	for i := g.n - 1; i >= 0; i-- {
		w := weights[i]
		if w < 0 {
			w = 0
		}
		suffix[i] = suffix[i+1] + w
	}
	scratch := getScratch((g.n + 1) * g.words)
	defer putScratch(scratch)
	buf := *scratch
	chosen := make([]int, 0, g.n)
	conflict := func(d int) []uint64 { return buf[d*g.words : (d+1)*g.words] }
	var walk func(next, sum int) bool
	walk = func(next, sum int) bool {
		if sum >= target {
			for _, v := range chosen {
				if sum-weights[v] >= target {
					return false // redundant member: not minimal
				}
			}
			return true
		}
		c := conflict(len(chosen))
		for v := ids.NextClearBit(c, next, g.n); v < g.n; v = ids.NextClearBit(c, v+1, g.n) {
			if weights[v] <= 0 {
				continue
			}
			if sum+suffix[v] < target {
				return false // even taking everything from v on falls short
			}
			nc := conflict(len(chosen) + 1)
			copy(nc, c)
			ids.OrWords(nc, g.adj[v])
			ids.SetBit(nc, v)
			chosen = append(chosen, v)
			if walk(v+1, sum+weights[v]) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
		}
		return false
	}
	if !walk(0, 0) {
		return nil, false
	}
	out := make([]ids.ProcessID, len(chosen))
	for i, v := range chosen {
		out[i] = ids.ProcessID(v + 1)
	}
	return out, true
}

// PruneEdges removes every edge {u, v} (u < v) for which keep returns
// false and reports how many edges were removed. It visits each edge
// once and allocates nothing — the suspicion store uses it to advance
// its cached suspect graph to a new epoch in O(edges).
func (g *Graph) PruneEdges(keep func(u, v ids.ProcessID) bool) int {
	removed := 0
	for i := 0; i < g.n; i++ {
		row := g.adj[i]
		for j := ids.NextSetBit(row, i+1, g.n); j < g.n; j = ids.NextSetBit(row, j+1, g.n) {
			if !keep(ids.ProcessID(i+1), ids.ProcessID(j+1)) {
				ids.ClearBit(row, j)
				ids.ClearBit(g.adj[j], i)
				removed++
			}
		}
	}
	return removed
}

// SortEdges orders edges by (U, V) after normalization, the canonical
// deterministic order used when serializing line subgraphs.
func SortEdges(es []Edge) {
	for i := range es {
		es[i] = es[i].Normalize()
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
}

// scratchPool recycles the word buffers the subset searches use for
// their per-depth conflict sets, keeping the exhaustive inner loops
// allocation-free across calls.
var scratchPool = sync.Pool{
	New: func() any {
		s := make([]uint64, 0, 256)
		return &s
	},
}

// getScratch returns a zeroed word buffer of at least size words.
func getScratch(size int) *[]uint64 {
	p := scratchPool.Get().(*[]uint64)
	if cap(*p) < size {
		*p = make([]uint64, size)
	}
	*p = (*p)[:size]
	for i := range *p {
		(*p)[i] = 0
	}
	return p
}

func putScratch(p *[]uint64) { scratchPool.Put(p) }

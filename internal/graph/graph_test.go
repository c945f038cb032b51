package graph

import (
	"math/rand"
	"testing"

	"quorumselect/internal/ids"
)

func mustEdges(t *testing.T, g *Graph, edges ...[2]int) {
	t.Helper()
	for _, e := range edges {
		g.AddEdge(ids.ProcessID(e[0]), ids.ProcessID(e[1]))
	}
}

func TestGraphBasics(t *testing.T) {
	g := New(5)
	mustEdges(t, g, [2]int{1, 2}, [2]int{2, 3})
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("edge (1,2) missing or not symmetric")
	}
	if g.HasEdge(1, 3) {
		t.Error("phantom edge (1,3)")
	}
	if g.Degree(2) != 2 || g.Degree(4) != 0 {
		t.Errorf("degrees wrong: deg(2)=%d deg(4)=%d", g.Degree(2), g.Degree(4))
	}
	if g.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d, want 2", g.EdgeCount())
	}
	g.AddEdge(1, 2) // duplicate
	if g.EdgeCount() != 2 {
		t.Error("duplicate AddEdge changed edge count")
	}
	g.AddEdge(3, 3) // self-loop ignored
	if g.Degree(3) != 1 {
		t.Error("self-loop affected degree")
	}
	g.RemoveEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Error("RemoveEdge failed")
	}
	ns := g.Neighbors(2)
	if len(ns) != 1 || ns[0] != 3 {
		t.Errorf("Neighbors(2) = %v", ns)
	}
}

func TestGraphCloneEqual(t *testing.T) {
	g := New(4)
	mustEdges(t, g, [2]int{1, 4})
	c := g.Clone()
	if !g.Equal(c) {
		t.Error("clone not equal")
	}
	c.AddEdge(2, 3)
	if g.Equal(c) {
		t.Error("clone shares storage")
	}
	if g.HasEdge(2, 3) {
		t.Error("clone mutation leaked")
	}
}

func TestIsIndependentSetAndVertexCover(t *testing.T) {
	g := New(5)
	mustEdges(t, g, [2]int{1, 2}, [2]int{1, 5}, [2]int{2, 5}, [2]int{3, 4})
	tests := []struct {
		set   []ids.ProcessID
		indep bool
	}{
		{[]ids.ProcessID{1, 3}, true},
		{[]ids.ProcessID{1, 2}, false},
		{[]ids.ProcessID{3, 4}, false},
		{[]ids.ProcessID{2, 3}, true},
		{[]ids.ProcessID{}, true},
	}
	for _, tt := range tests {
		if got := g.IsIndependentSet(tt.set); got != tt.indep {
			t.Errorf("IsIndependentSet(%v) = %v, want %v", tt.set, got, tt.indep)
		}
	}
	// Complement duality: set independent ⟺ complement is a vertex cover.
	all := ids.MustConfig(5, 2).All()
	for _, tt := range tests {
		comp := ids.FromSlice(all).Minus(ids.FromSlice(tt.set)).Members()
		if got := g.IsVertexCover(comp); got != tt.indep {
			t.Errorf("IsVertexCover(complement of %v) = %v, want %v", tt.set, got, tt.indep)
		}
	}
}

// TestFigure4 reproduces the paper's Figure 4: in epoch 2 no
// independent set of size 3 exists; moving to epoch 3 removes the edge
// (p3,p4) and both {p1,p3,p4} and {p3,p4,p5} become independent sets,
// with {p1,p3,p4} chosen as lexicographically first.
func TestFigure4(t *testing.T) {
	epoch2 := New(5)
	mustEdges(t, epoch2, [2]int{1, 2}, [2]int{1, 5}, [2]int{2, 5}, [2]int{3, 4})
	if epoch2.HasIndependentSet(3) {
		t.Fatal("epoch-2 graph should have no independent set of size 3")
	}

	epoch3 := epoch2.Clone()
	epoch3.RemoveEdge(3, 4) // the suspicion labeled epoch 2 expires
	if !epoch3.IsIndependentSet([]ids.ProcessID{1, 3, 4}) {
		t.Error("{p1,p3,p4} should be independent in epoch 3")
	}
	if !epoch3.IsIndependentSet([]ids.ProcessID{3, 4, 5}) {
		t.Error("{p3,p4,p5} should be independent in epoch 3")
	}
	got, ok := epoch3.FirstIndependentSet(3)
	if !ok {
		t.Fatal("epoch-3 graph should have an independent set of size 3")
	}
	want := []ids.ProcessID{1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FirstIndependentSet = %v, want %v", got, want)
		}
	}
}

func TestFirstIndependentSetEdgeCases(t *testing.T) {
	g := New(3)
	if set, ok := g.FirstIndependentSet(0); !ok || len(set) != 0 {
		t.Error("q=0 should return the empty set")
	}
	if _, ok := g.FirstIndependentSet(4); ok {
		t.Error("q>n should fail")
	}
	if _, ok := g.FirstIndependentSet(-1); ok {
		t.Error("q<0 should fail")
	}
	// Empty graph: first IS is {p1,...,pq}.
	set, ok := g.FirstIndependentSet(3)
	if !ok || set[0] != 1 || set[1] != 2 || set[2] != 3 {
		t.Errorf("empty graph IS = %v", set)
	}
	// Complete graph: only singletons.
	k := New(3)
	mustEdges(t, k, [2]int{1, 2}, [2]int{1, 3}, [2]int{2, 3})
	if k.HasIndependentSet(2) {
		t.Error("K3 has no independent set of size 2")
	}
	if s, ok := k.FirstIndependentSet(1); !ok || s[0] != 1 {
		t.Errorf("K3 first singleton = %v", s)
	}
}

// bruteFirstIS computes the lexicographically-first independent set of
// size q by scanning the full enumeration.
func bruteFirstIS(g *Graph, q int) ([]ids.ProcessID, bool) {
	for _, quorum := range ids.EnumerateQuorums(g.N(), q) {
		if g.IsIndependentSet(quorum.Members) {
			return quorum.Members, true
		}
	}
	return nil, false
}

func randomGraph(rng *rand.Rand, n, edges int) *Graph {
	g := New(n)
	for i := 0; i < edges; i++ {
		u := ids.ProcessID(rng.Intn(n) + 1)
		v := ids.ProcessID(rng.Intn(n) + 1)
		g.AddEdge(u, v)
	}
	return g
}

func TestFirstIndependentSetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(8) // 3..10
		g := randomGraph(rng, n, rng.Intn(2*n))
		for q := 1; q <= n; q++ {
			want, wantOK := bruteFirstIS(g, q)
			got, gotOK := g.FirstIndependentSet(q)
			if gotOK != wantOK {
				t.Fatalf("n=%d q=%d %s: ok=%v, brute=%v", n, q, g, gotOK, wantOK)
			}
			if !gotOK {
				continue
			}
			if !g.IsIndependentSet(got) {
				t.Fatalf("returned set %v not independent in %s", got, g)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d q=%d %s: got %v, want %v", n, q, g, got, want)
				}
			}
		}
	}
}

func TestAllIndependentSets(t *testing.T) {
	g := New(4)
	mustEdges(t, g, [2]int{1, 2})
	all := g.AllIndependentSets(2)
	// Pairs excluding (1,2): (1,3),(1,4),(2,3),(2,4),(3,4) = 5.
	if len(all) != 5 {
		t.Fatalf("AllIndependentSets(2) returned %d sets, want 5", len(all))
	}
	// Lexicographic order and first element agreement.
	first, _ := g.FirstIndependentSet(2)
	for i := range first {
		if all[0][i] != first[i] {
			t.Error("AllIndependentSets[0] differs from FirstIndependentSet")
		}
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(5)
	mustEdges(t, g, [2]int{5, 1}, [2]int{3, 2})
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("Edges len = %d", len(es))
	}
	if es[0] != (Edge{U: 1, V: 5}) || es[1] != (Edge{U: 2, V: 3}) {
		t.Errorf("Edges = %v", es)
	}
}

func TestSortEdges(t *testing.T) {
	es := []Edge{{U: 4, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}}
	SortEdges(es)
	want := []Edge{{U: 1, V: 3}, {U: 2, V: 3}, {U: 2, V: 4}}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("SortEdges = %v, want %v", es, want)
		}
	}
}

func TestGraphPanicsOutsidePi(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for node outside Π")
		}
	}()
	g.AddEdge(1, 4)
}

func TestNewPanicsOnBadN(t *testing.T) {
	for _, n := range []int{0, -1, MaxNodes + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

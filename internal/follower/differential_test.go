package follower

import (
	"math/rand"
	"slices"
	"testing"

	"quorumselect/internal/graph"
	"quorumselect/internal/ids"
	"quorumselect/internal/quorum"
	"quorumselect/internal/wire"
)

// The selector has one follower-selection path and one well-formedness
// check, both stated on quorum.System. For the paper's threshold system
// they must be Definition 2 and Definition 3 to the letter: the first
// q−1 candidates, and exactly q−1 followers. This file is that proof by
// exhaustion — every graph on n ≤ 6 nodes, then 10⁴ seeded graphs on up
// to 12 — against SelectFollowers and against thresholdWellFormed, the
// fixed-count check the selector used to carry beside the general one.

// thresholdWellFormed is Definition 3 with its size clause as the paper
// writes it, |Fw| = q−1: the reference wellFormed is compared against.
func thresholdWellFormed(n, q int, g *graph.Graph, m *wire.Followers) bool {
	if len(m.Followers) != q-1 || !m.Leader.Valid(n) {
		return false
	}
	seen := ids.NewProcSet()
	for _, fw := range m.Followers {
		if fw == m.Leader || !fw.Valid(n) || seen.Contains(fw) {
			return false
		}
		seen.Add(fw)
	}
	l, err := graph.LineSubgraphFromEdges(n, fromWireEdges(m.Line))
	if err != nil || !l.SubgraphOf(g) || l.Leader() != m.Leader {
		return false
	}
	for _, fw := range m.Followers {
		if !l.IsPossibleFollower(fw) {
			return false
		}
	}
	return true
}

// checkGraph runs both comparisons for g under every threshold on its n
// nodes — n = 3f+1 and n = 2f+1 are among them — and returns how many
// FOLLOWERS messages it compared.
func checkGraph(t *testing.T, g *graph.Graph, rng *rand.Rand) int {
	t.Helper()
	n := g.N()
	l := graph.MaximalLineSubgraph(g)
	line := toWireEdges(l.Edges())
	cover := graph.NewLineSubgraph(n) // greedy linear forest of g
	for _, e := range g.Edges() {
		_ = cover.AddEdge(e.U, e.V) // an edge that would break the line is skipped
	}
	coverLine, coverFw := toWireEdges(cover.Edges()), cover.PossibleFollowers()
	compared := 0
	for q := 1; q <= n; q++ {
		sys, err := quorum.NewThreshold(n, q)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, on *graph.Graph, m *wire.Followers) bool {
			compared++
			got, want := wellFormed(sys, on, m), thresholdWellFormed(n, q, on, m)
			if got != want {
				t.Fatalf("%s, %s, %s: wellFormed(%s: leader=%s fw=%v line=%v) = %v, Definition 3 says %v",
					g, l, sys, what, m.Leader, m.Followers, m.Line, got, want)
			}
			return got
		}

		// Selection (a maximal line subgraph always designates a leader).
		fw, ok := selectFollowers(sys, l, g)
		ref, refOK := SelectFollowers(l, g, q-1)
		if ok != refOK || !slices.Equal(fw, ref) {
			t.Fatalf("%s, %s, %s: selectFollowers = %v, %v; Definition 2 says %v, %v",
				g, l, sys, fw, ok, ref, refOK)
		}
		if ok && !check("the leader's own choice", g, &wire.Followers{Leader: l.Leader(), Followers: fw, Line: line}) {
			t.Fatalf("%s, %s, %s: the leader's own choice %v is not well-formed", g, l, sys, fw)
		}

		// Mutations of that FOLLOWERS message: what a Byzantine leader,
		// or a receiver whose graph lags, can make of it.
		pick := func() ids.ProcessID { return ids.ProcessID(rng.Intn(n + 2)) } // 0 and n+1 are outside Π
		with := func(f func(m *wire.Followers)) *wire.Followers {
			m := &wire.Followers{
				Leader:    l.Leader(),
				Followers: append([]ids.ProcessID{}, fw...),
				Line:      append([]wire.Edge{}, line...),
			}
			f(m)
			return m
		}
		check("padded with one more", g, with(func(m *wire.Followers) { m.Followers = append(m.Followers, pick()) }))
		check("padded with two more", g, with(func(m *wire.Followers) { m.Followers = append(m.Followers, pick(), pick()) }))
		check("another leader", g, with(func(m *wire.Followers) { m.Leader = pick() }))
		check("no followers", g, with(func(m *wire.Followers) { m.Followers = nil }))
		if len(fw) > 0 {
			i := rng.Intn(len(fw))
			check("one dropped", g, with(func(m *wire.Followers) { m.Followers = append(m.Followers[:i], m.Followers[i+1:]...) }))
			check("one replaced", g, with(func(m *wire.Followers) { m.Followers[i] = pick() }))
			check("one doubled", g, with(func(m *wire.Followers) { m.Followers[i] = m.Followers[0] }))
			check("leader among followers", g, with(func(m *wire.Followers) { m.Followers[i] = m.Leader }))
			check("reversed", g, with(func(m *wire.Followers) {
				for a, b := 0, len(m.Followers)-1; a < b; a, b = a+1, b-1 {
					m.Followers[a], m.Followers[b] = m.Followers[b], m.Followers[a]
				}
			}))
		}
		check("line with a foreign edge", g, with(func(m *wire.Followers) {
			m.Line = append(m.Line, wire.Edge{U: pick(), V: pick()})
		}))
		if len(line) > 0 {
			i := rng.Intn(len(line))
			check("line missing an edge", g, with(func(m *wire.Followers) { m.Line = append(m.Line[:i], m.Line[i+1:]...) }))
			lagging := g.Clone()
			lagging.RemoveEdge(line[i].U, line[i].V)
			check("receiver missing an edge", lagging, with(func(*wire.Followers) {}))
		}
		// A line that covers every node designates nobody; q followers
		// then make a quorum without any leader in Π.
		if cover.NodeCount() == n && len(coverFw) >= q {
			check("nobody leads", g, &wire.Followers{Leader: ids.None, Followers: coverFw[:q], Line: coverLine})
		}
	}
	return compared
}

func TestOnePathMatchesDefinitionsOnAllSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	compared := 0
	for n := 1; n <= 6; n++ {
		var pairs []graph.Edge
		for u := 1; u <= n; u++ {
			for v := u + 1; v <= n; v++ {
				pairs = append(pairs, graph.Edge{U: ids.ProcessID(u), V: ids.ProcessID(v)})
			}
		}
		for mask := 0; mask < 1<<len(pairs); mask++ {
			g := graph.New(n)
			for i, e := range pairs {
				if mask&(1<<i) != 0 {
					g.AddEdge(e.U, e.V)
				}
			}
			compared += checkGraph(t, g, rng)
		}
	}
	t.Logf("%d FOLLOWERS messages compared", compared)
}

func TestOnePathMatchesDefinitionsOnSeededGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	compared := 0
	for i := 0; i < 10000; i++ {
		n := 7 + rng.Intn(6)
		g := graph.New(n)
		// Sparse, as suspect graphs are: MaximalLineSubgraph is
		// exponential in the edge count.
		for e := rng.Intn(n + 3); e > 0; e-- {
			u, v := 1+rng.Intn(n), 1+rng.Intn(n)
			if u != v {
				g.AddEdge(ids.ProcessID(u), ids.ProcessID(v))
			}
		}
		compared += checkGraph(t, g, rng)
	}
	t.Logf("%d FOLLOWERS messages compared", compared)
}

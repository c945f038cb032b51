package quorum

import (
	"math/rand"
	"reflect"
	"testing"

	"quorumselect/internal/graph"
	"quorumselect/internal/ids"
)

// genericOnly wraps a System and exposes ONLY the five interface
// methods, hiding the GraphSelector/ContainsQuorumer fast paths,
// so tests can force the generic MinQuorums-driven code paths and diff
// them against the specialized ones.
type genericOnly struct{ sys System }

func (g genericOnly) N() int                                { return g.sys.N() }
func (g genericOnly) IsQuorum(members []ids.ProcessID) bool { return g.sys.IsQuorum(members) }
func (g genericOnly) MinQuorums() [][]ids.ProcessID         { return g.sys.MinQuorums() }
func (g genericOnly) Survives(faults ids.ProcSet) bool      { return g.sys.Survives(faults) }
func (g genericOnly) String() string                        { return g.sys.String() }

// randomGraph builds a suspect graph on n processes where each edge is
// present with probability p.
func randomGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			if rng.Float64() < p {
				g.AddEdge(ids.ProcessID(u), ids.ProcessID(v))
			}
		}
	}
	return g
}

// TestThresholdMatchesLegacySelection is the differential half of the
// byte-compatibility story: on 1000 seeded suspect graphs the
// generalized seam (Select/Admits over a Threshold system) must agree
// exactly — members and order — with the legacy direct calls the
// selectors used to make (FirstIndependentSet / HasIndependentSet).
func TestThresholdMatchesLegacySelection(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD1FF))
	for i := 0; i < 1000; i++ {
		n := 4 + rng.Intn(7) // 4..10
		f := 1 + rng.Intn((n-1)/2)
		if n-f <= f {
			f = (n - 1) / 2
		}
		q := n - f
		sys, err := NewThreshold(n, q)
		if err != nil {
			t.Fatalf("case %d: NewThreshold(%d,%d): %v", i, n, q, err)
		}
		g := randomGraph(rng, n, rng.Float64())

		gotSet, gotOK := Select(sys, g)
		wantSet, wantOK := g.FirstIndependentSet(q)
		if gotOK != wantOK || !reflect.DeepEqual(gotSet, wantSet) {
			t.Fatalf("case %d (n=%d q=%d, %s): Select=%v,%v FirstIndependentSet=%v,%v",
				i, n, q, g, gotSet, gotOK, wantSet, wantOK)
		}
		if got, want := Admits(sys, g), g.HasIndependentSet(q); got != want {
			t.Fatalf("case %d (n=%d q=%d, %s): Admits=%v HasIndependentSet=%v", i, n, q, g, got, want)
		}
	}
}

// TestGenericPathMatchesThresholdFastPath forces the generic
// MinQuorums-scan selection (fast paths hidden) and diffs it against
// the specialized threshold path on seeded graphs: both must pick the
// same lexicographically-first independent quorum.
func TestGenericPathMatchesThresholdFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBEEF))
	for i := 0; i < 300; i++ {
		n := 4 + rng.Intn(5) // 4..8, keeps MinQuorums enumeration small
		f := 1 + rng.Intn((n-1)/2)
		if n-f <= f {
			f = (n - 1) / 2
		}
		sys, _ := NewThreshold(n, n-f)
		g := randomGraph(rng, n, rng.Float64())

		fastSet, fastOK := Select(sys, g)
		genSet, genOK := Select(genericOnly{sys}, g)
		if fastOK != genOK || !reflect.DeepEqual(fastSet, genSet) {
			t.Fatalf("case %d (%s, %s): fast=%v,%v generic=%v,%v",
				i, sys, g, fastSet, fastOK, genSet, genOK)
		}

		set := randomSubset(&splitmix64{state: uint64(i) + 1}, n, rng.Intn(n+1))
		if got, want := Contains(genericOnly{sys}, set), Contains(sys, set); got != want {
			t.Fatalf("case %d (%s, set=%s): generic Contains=%v fast=%v", i, sys, set, got, want)
		}
	}
}

// TestWeightedGenericSelectionAgrees diffs the weighted graph fast path
// (FirstWeightedIndependentSet) against the generic MinQuorums scan on
// seeded graphs and weights.
func TestWeightedGenericSelectionAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(0xA11CE))
	for i := 0; i < 300; i++ {
		n := 3 + rng.Intn(6) // 3..8
		weights := make([]int, n)
		total := 0
		for j := range weights {
			weights[j] = rng.Intn(5)
			total += weights[j]
		}
		if total == 0 {
			weights[0], total = 1, 1
		}
		sys, err := NewWeighted(weights, 1+rng.Intn(total))
		if err != nil {
			t.Fatalf("case %d: NewWeighted(%v): %v", i, weights, err)
		}
		g := randomGraph(rng, n, rng.Float64())

		fastSet, fastOK := Select(sys, g)
		genSet, genOK := Select(genericOnly{sys}, g)
		if fastOK != genOK || !reflect.DeepEqual(fastSet, genSet) {
			t.Fatalf("case %d (%s, %s): fast=%v,%v generic=%v,%v",
				i, sys, g, fastSet, fastOK, genSet, genOK)
		}
		if fastOK && !sys.IsQuorum(fastSet) {
			t.Fatalf("case %d (%s): selected %v is not a quorum", i, sys, fastSet)
		}
	}
}

// TestWeightedMinimalSelection pins the non-greedy minimality rule: with
// weights {1,5} and target 5, the lexicographically-first SUBSET
// reaching the target is {p1,p2}, but it is not minimal — {p2} alone
// suffices, and both the DFS enumeration and graph selection must say
// so.
func TestWeightedMinimalSelection(t *testing.T) {
	sys, err := NewWeighted([]int{1, 5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]ids.ProcessID{{2}}
	if got := sys.MinQuorums(); !reflect.DeepEqual(got, want) {
		t.Fatalf("MinQuorums=%v, want %v", got, want)
	}
	set, ok := Select(sys, graph.New(2))
	if !ok || !reflect.DeepEqual(set, []ids.ProcessID{2}) {
		t.Fatalf("Select=%v,%v, want [p2],true", set, ok)
	}
}

// TestWeightedZeroWeightMembers: zero-weight processes contribute
// nothing and never appear in minimal quorums, but do not invalidate a
// set they are part of.
func TestWeightedZeroWeightMembers(t *testing.T) {
	sys, err := NewWeighted([]int{0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.IsQuorum([]ids.ProcessID{1, 2, 3}) {
		t.Fatal("full set should be a quorum")
	}
	if sys.IsQuorum([]ids.ProcessID{1, 2}) {
		t.Fatal("{p1,p2} has weight 1 < 2, must not be a quorum")
	}
	want := [][]ids.ProcessID{{2, 3}}
	if got := sys.MinQuorums(); !reflect.DeepEqual(got, want) {
		t.Fatalf("MinQuorums=%v, want %v", got, want)
	}
}

// TestSlicesMatchesEquivalentThreshold: the any-2-of-3 ring slices spec
// is extensionally the 3-of-4 threshold system; IsQuorum must agree on
// every one of the 16 subsets, and ContainsQuorum on every ProcSet.
func TestSlicesMatchesEquivalentThreshold(t *testing.T) {
	sys := MustParseSpec("slices:n=4;1={2,3}|{2,4}|{3,4};2={1,3}|{1,4}|{3,4};3={1,2}|{1,4}|{2,4};4={1,2}|{1,3}|{2,3}")
	th := MustParseSpec("threshold:n=4;q=3")
	for mask := uint32(0); mask < 16; mask++ {
		members := maskToMembers(mask)
		if got, want := sys.IsQuorum(members), th.IsQuorum(members); got != want {
			t.Fatalf("IsQuorum(%v): slices=%v threshold=%v", members, got, want)
		}
		set := ids.FromSlice(members)
		if got, want := Contains(sys, set), Contains(th, set); got != want {
			t.Fatalf("Contains(%s): slices=%v threshold=%v", set, got, want)
		}
		if got, want := sys.Survives(set), th.Survives(set); got != want {
			t.Fatalf("Survives(%s): slices=%v threshold=%v", set, got, want)
		}
	}
	if got, want := sys.MinQuorums(), th.MinQuorums(); !reflect.DeepEqual(got, want) {
		t.Fatalf("MinQuorums: slices=%v threshold=%v", got, want)
	}
}

// TestDefaultQuorumMatchesConfig: the boot-time quorum of the threshold
// system from a Config is the paper's initial quorum {p1..pq} — the
// anchor of the no-OnQuorum-at-boot byte-compatibility contract.
func TestDefaultQuorumMatchesConfig(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}, {3, 1}} {
		cfg := ids.MustConfig(tc.n, tc.f)
		set, ok := Default(FromConfig(cfg))
		if !ok {
			t.Fatalf("n=%d f=%d: no default quorum", tc.n, tc.f)
		}
		if want := cfg.DefaultQuorum().Sorted(); !reflect.DeepEqual(set, want) {
			t.Fatalf("n=%d f=%d: Default=%v, want %v", tc.n, tc.f, set, want)
		}
	}
}

// TestFromConfigString pins the spec-string form of the legacy default.
func TestFromConfigString(t *testing.T) {
	if got, want := FromConfig(ids.MustConfig(4, 1)).String(), "threshold:n=4;q=3"; got != want {
		t.Fatalf("FromConfig(4,1).String()=%q, want %q", got, want)
	}
}

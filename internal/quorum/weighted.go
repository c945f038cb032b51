package quorum

import (
	"fmt"
	"strings"

	"quorumselect/internal/graph"
	"quorumselect/internal/ids"
)

// MaxWeightedN bounds weighted-system size. The exact checker's
// subset-weight walk visits 2^n masks up to its exact cutoff; beyond
// that the sampler takes over, but parsing still caps n so a spec typo
// cannot allocate unboundedly.
const MaxWeightedN = 64

// Weighted is a weighted threshold system: process p_i carries weight
// w_i ≥ 0 and a set is a quorum iff its distinct valid members' weights
// sum to at least the target T. The paper's threshold system is the
// special case w_i = 1, T = q; unequal weights model heterogeneous
// trust (Alpos & Cachin §2).
type Weighted struct {
	weights []int // weights[i] is the weight of p_{i+1}
	target  int
	total   int
}

// NewWeighted builds a weighted system from per-process weights
// (weights[i] belongs to p_{i+1}) and a target T. Every weight must be
// non-negative and 1 ≤ T ≤ Σw. Intersection (2T > Σw is sufficient but
// not necessary — see check.go) is the checker's verdict, not a
// constructor error, so unsafe instances can be exercised deliberately.
func NewWeighted(weights []int, target int) (Weighted, error) {
	n := len(weights)
	if n < 1 {
		return Weighted{}, fmt.Errorf("quorum: weighted needs at least one weight")
	}
	if n > MaxWeightedN {
		return Weighted{}, fmt.Errorf("quorum: weighted supports at most %d processes, got %d", MaxWeightedN, n)
	}
	total := 0
	ws := make([]int, n)
	for i, w := range weights {
		if w < 0 {
			return Weighted{}, fmt.Errorf("quorum: weight of p%d must be non-negative, got %d", i+1, w)
		}
		ws[i] = w
		total += w
	}
	if target < 1 || target > total {
		return Weighted{}, fmt.Errorf("quorum: weighted target must satisfy 1 <= t <= total weight %d, got t=%d", total, target)
	}
	return Weighted{weights: ws, target: target, total: total}, nil
}

// N returns the number of processes.
func (w Weighted) N() int { return len(w.weights) }

// Target returns the quorum weight target T.
func (w Weighted) Target() int { return w.target }

// Weight returns the weight of p, or 0 for invalid ids.
func (w Weighted) Weight(p ids.ProcessID) int {
	if !p.Valid(len(w.weights)) {
		return 0
	}
	return w.weights[int(p)-1]
}

// IsQuorum reports whether the distinct valid members' weights sum to
// at least the target.
func (w Weighted) IsQuorum(members []ids.ProcessID) bool {
	return w.weightOf(dedupe(members, len(w.weights))) >= w.target
}

// ContainsQuorum is IsQuorum: weighted systems are monotone.
func (w Weighted) ContainsQuorum(set ids.ProcSet) bool {
	return w.weightOf(set) >= w.target
}

// weightOf sums the weights of the set's members; members outside Π
// weigh nothing.
func (w Weighted) weightOf(set ids.ProcSet) int {
	sum := 0
	for p := set.Next(ids.None); p != ids.None; p = set.Next(p) {
		sum += w.Weight(p)
	}
	return sum
}

// SelectQuorum picks the lexicographically-first inclusion-minimal
// independent set of g reaching the weight target.
func (w Weighted) SelectQuorum(g *graph.Graph) ([]ids.ProcessID, bool) {
	return g.FirstWeightedIndependentSet(w.weights, w.target)
}

// MinQuorums enumerates every inclusion-minimal quorum in lexicographic
// order, or nil when n > MaxEnumerateN.
func (w Weighted) MinQuorums() [][]ids.ProcessID {
	n := len(w.weights)
	if n > MaxEnumerateN {
		return nil
	}
	var out [][]ids.ProcessID
	cur := make([]ids.ProcessID, 0, n)
	// Suffix sums let the walk prune branches that cannot reach the
	// target even taking every remaining process.
	suffix := make([]int, n+2)
	for i := n; i >= 1; i-- {
		suffix[i] = suffix[i+1] + w.weights[i-1]
	}
	var walk func(next, sum int)
	walk = func(next, sum int) {
		if sum >= w.target {
			// Leaf: record only if inclusion-minimal. A lex DFS can
			// reach the target with redundant light members already
			// chosen (e.g. w={1,5}, T=5 reaches 6 via {p1,p2} but the
			// minimal quorum is {p2}), so verify every member is
			// load-bearing; non-minimal leaves are simply dropped — the
			// minimal quorum inside them is reached on another branch.
			for _, m := range cur {
				if sum-w.Weight(m) >= w.target {
					return
				}
			}
			q := make([]ids.ProcessID, len(cur))
			copy(q, cur)
			out = append(out, q)
			return
		}
		for v := next; v <= n; v++ {
			wt := w.weights[v-1]
			if wt == 0 {
				continue // zero-weight members are never load-bearing
			}
			if sum+suffix[v] < w.target {
				return // even taking everything from v on falls short
			}
			cur = append(cur, ids.ProcessID(v))
			walk(v+1, sum+wt)
			cur = cur[:len(cur)-1]
		}
	}
	walk(1, 0)
	if out == nil {
		out = [][]ids.ProcessID{}
	}
	return out
}

// Survives reports whether the weight remaining outside the fault set
// still reaches the target.
func (w Weighted) Survives(faults ids.ProcSet) bool {
	return w.total-w.weightOf(faults) >= w.target
}

// String renders the spec in ParseSpec syntax, e.g. "weighted:w=3,1,1,1;t=4".
func (w Weighted) String() string {
	parts := make([]string, len(w.weights))
	for i, wt := range w.weights {
		parts[i] = fmt.Sprintf("%d", wt)
	}
	return fmt.Sprintf("weighted:w=%s;t=%d", strings.Join(parts, ","), w.target)
}

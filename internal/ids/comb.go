package ids

// Binomial returns C(n, k), the number of k-element subsets of an
// n-element set. It panics on negative arguments and returns 0 when
// k > n. Used for the paper's bounds: XPaxos enumerates C(n, f)
// quorums (§V-B) and the lower bound of Theorem 4 is C(f+2, 2).
func Binomial(n, k int) int {
	if n < 0 || k < 0 {
		panic("ids: Binomial requires non-negative arguments")
	}
	if k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 0; i < k; i++ {
		res = res * (n - i) / (i + 1)
	}
	return res
}

// TheoremFourBound returns C(f+2, 2), the lower bound of Theorem 4 on
// the number of quorums any deterministic quorum-selection algorithm
// may have to propose, and the empirical per-epoch maximum suggested by
// the paper's simulations for Algorithm 1.
func TheoremFourBound(f int) int { return Binomial(f+2, 2) }

// TheoremThreeBound returns f×(f+1), the per-epoch upper bound on
// quorums issued by a correct process established in the proof of
// Theorem 3.
func TheoremThreeBound(f int) int { return f * (f + 1) }

// TheoremNineBound returns 3f+1, the per-epoch bound on quorums issued
// by Follower Selection (Theorem 9).
func TheoremNineBound(f int) int { return 3*f + 1 }

// CorollaryTenBound returns 6f+2, the bound on quorums issued by
// Follower Selection after the failure detector has become accurate
// (Corollary 10).
func CorollaryTenBound(f int) int { return 6*f + 2 }

// EnumerateQuorums returns all C(n, q)-many quorums of size q over
// {p_1, ..., p_n} in lexicographic order of their sorted member lists.
// This is the enumeration XPaxos iterates through when changing views
// (§V-B). The result grows combinatorially; callers cap n accordingly.
func EnumerateQuorums(n, q int) []Quorum {
	if q < 0 || q > n {
		return nil
	}
	var (
		out  []Quorum
		cur  = make([]ProcessID, 0, q)
		walk func(next int)
	)
	walk = func(next int) {
		if len(cur) == q {
			ms := make([]ProcessID, q)
			copy(ms, cur)
			out = append(out, Quorum{Members: ms})
			return
		}
		// Prune: not enough processes left to complete the quorum.
		need := q - len(cur)
		for v := next; v <= n-need+1; v++ {
			cur = append(cur, ProcessID(v))
			walk(v + 1)
			cur = cur[:len(cur)-1]
		}
	}
	walk(1)
	return out
}

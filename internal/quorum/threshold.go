package quorum

import (
	"fmt"

	"quorumselect/internal/graph"
	"quorumselect/internal/ids"
)

// MaxThresholdQuorums caps the C(n, q) enumeration MinQuorums
// materializes for threshold systems. The checker never needs it (2q > n
// is decided analytically), but XPaxos maps its views onto it, so it
// also caps the threshold systems XPaxos runs on.
const MaxThresholdQuorums = 1 << 20

// Threshold is the paper's uniform quorum system: every set of at least
// q = n − f distinct processes is a quorum. It is the byte-compatible
// extraction of the q-count rule previously hard-coded in the selectors
// and in the XPaxos certificate path.
type Threshold struct {
	n, q int
}

// NewThreshold returns the threshold system with quorum size q over n
// processes. It requires 1 ≤ q ≤ n; intersection additionally needs
// 2q > n, which is reported by the checker rather than rejected here so
// the chaos harness can exercise deliberately unsafe instances.
func NewThreshold(n, q int) (Threshold, error) {
	if n < 1 {
		return Threshold{}, fmt.Errorf("quorum: threshold needs n >= 1, got n=%d", n)
	}
	if q < 1 || q > n {
		return Threshold{}, fmt.Errorf("quorum: threshold needs 1 <= q <= n, got n=%d q=%d", n, q)
	}
	return Threshold{n: n, q: q}, nil
}

// N returns the number of processes.
func (t Threshold) N() int { return t.n }

// QuorumSize returns q; every minimal quorum has exactly q members.
func (t Threshold) QuorumSize() int { return t.q }

// IsQuorum reports whether the member list names at least q distinct
// valid processes — exactly the signers.Len() >= q rule the certificate
// path counted with.
func (t Threshold) IsQuorum(members []ids.ProcessID) bool {
	return dedupe(members, t.n).Len() >= t.q
}

// ContainsQuorum is IsQuorum: threshold systems are monotone.
func (t Threshold) ContainsQuorum(set ids.ProcSet) bool {
	return set.Intersect(ids.FirstN(t.n)).Len() >= t.q
}

// MinQuorums enumerates all C(n, q) size-q subsets in lexicographic
// order, or nil when the enumeration would exceed MaxThresholdQuorums.
func (t Threshold) MinQuorums() [][]ids.ProcessID {
	if ids.Binomial(t.n, t.q) > MaxThresholdQuorums {
		return nil
	}
	qs := ids.EnumerateQuorums(t.n, t.q)
	out := make([][]ids.ProcessID, len(qs))
	for i, q := range qs {
		out[i] = q.Members
	}
	return out
}

// SelectQuorum picks the lexicographically-first size-q independent set
// of g — Algorithm 1's selection rule, unchanged.
func (t Threshold) SelectQuorum(g *graph.Graph) ([]ids.ProcessID, bool) {
	return g.FirstIndependentSet(t.q)
}

// Survives reports whether at least q processes remain outside the
// fault set.
func (t Threshold) Survives(faults ids.ProcSet) bool {
	return t.n-faults.Intersect(ids.FirstN(t.n)).Len() >= t.q
}

// String renders the spec in ParseSpec syntax.
func (t Threshold) String() string {
	return fmt.Sprintf("threshold:n=%d;q=%d", t.n, t.q)
}

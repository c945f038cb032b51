package quorum

import (
	"fmt"
	"sort"
	"strings"

	"quorumselect/internal/ids"
)

// MaxSlicesN bounds slice-system size: the FBAS fixpoint and the
// minimal-quorum enumeration both walk subsets of Π, so n stays within
// MaxEnumerateN where the exact machinery is tractable.
const MaxSlicesN = MaxEnumerateN

// Slices is an FBAS-style asymmetric quorum system (Stellar; Gaul et
// al.): each process p declares a list of quorum slices — sets of
// processes p is willing to rely on. A non-empty set S is a quorum iff
// every member v ∈ S has at least one of its slices entirely inside S.
// Unlike threshold and weighted systems this predicate is NOT monotone
// in general (a superset can break a member's slice condition only in
// contrived specs, but containment still needs the fixpoint — see
// ContainsQuorum).
type Slices struct {
	n int
	// slices[i] holds p_{i+1}'s slices; each includes the owner
	// itself, the usual FBAS normalization.
	slices [][]ids.ProcSet
	// text keeps the per-process slice member lists (without the
	// implicit owner) for String round-tripping.
	text [][][]ids.ProcessID
	// minimal is MinQuorums, enumerated once by NewSlices: the walk
	// visits all 2^n subsets, and Select scans it on every new suspect
	// graph.
	minimal [][]ids.ProcessID
}

// NewSlices builds a slice system over n processes. spec[i] lists
// p_{i+1}'s slices; each slice is a set of process ids (the owner is
// implicitly added to each of its own slices). Every process must
// declare at least one slice, and every referenced id must be valid.
func NewSlices(n int, spec [][][]ids.ProcessID) (*Slices, error) {
	if n < 1 {
		return nil, fmt.Errorf("quorum: slices needs n >= 1, got n=%d", n)
	}
	if n > MaxSlicesN {
		return nil, fmt.Errorf("quorum: slices supports at most %d processes, got %d", MaxSlicesN, n)
	}
	if len(spec) != n {
		return nil, fmt.Errorf("quorum: slices needs one slice list per process, got %d lists for n=%d", len(spec), n)
	}
	s := &Slices{n: n, slices: make([][]ids.ProcSet, n), text: make([][][]ids.ProcessID, n)}
	for i, list := range spec {
		owner := ids.ProcessID(i + 1)
		if len(list) == 0 {
			return nil, fmt.Errorf("quorum: %s declares no slices", owner)
		}
		for _, slice := range list {
			set := ids.NewProcSet(owner)
			members := make([]ids.ProcessID, 0, len(slice))
			for _, p := range slice {
				if !p.Valid(n) {
					return nil, fmt.Errorf("quorum: slice of %s references invalid process p%d (n=%d)", owner, int(p), n)
				}
				if p != owner {
					members = append(members, p)
				}
				set.Add(p)
			}
			sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
			s.slices[i] = append(s.slices[i], set)
			s.text[i] = append(s.text[i], members)
		}
	}
	s.minimal = s.enumerateMinimal()
	return s, nil
}

// N returns the number of processes.
func (s *Slices) N() int { return s.n }

// hasSliceIn reports whether some slice of p lies inside set.
func (s *Slices) hasSliceIn(p ids.ProcessID, set ids.ProcSet) bool {
	for _, sl := range s.slices[int(p)-1] {
		if sl.SubsetOf(set) {
			return true
		}
	}
	return false
}

// isQuorumSet reports the FBAS quorum predicate on a set of valid
// processes: the set is non-empty and every member has some slice
// contained in it.
func (s *Slices) isQuorumSet(set ids.ProcSet) bool {
	p := set.Next(ids.None)
	if p == ids.None {
		return false
	}
	for ; p != ids.None; p = set.Next(p) {
		if !s.hasSliceIn(p, set) {
			return false
		}
	}
	return true
}

// IsQuorum reports whether the member set satisfies the slice predicate.
func (s *Slices) IsQuorum(members []ids.ProcessID) bool {
	return s.isQuorumSet(dedupe(members, s.n))
}

// ContainsQuorum reports whether set contains some quorum, via the FBAS
// greatest-quorum fixpoint: repeatedly delete members with no slice
// inside the remainder; the set contains a quorum iff the fixpoint is
// non-empty (it is then the greatest quorum inside set).
func (s *Slices) ContainsQuorum(set ids.ProcSet) bool {
	cur := set.Intersect(ids.FirstN(s.n))
	for {
		next := cur
		for p := cur.Next(ids.None); p != ids.None; p = cur.Next(p) {
			if !s.hasSliceIn(p, cur) {
				next.Remove(p)
			}
		}
		if next == cur {
			return !cur.Empty()
		}
		cur = next
	}
}

// MinQuorums returns every inclusion-minimal quorum in lexicographic
// order. The result is shared: callers must not modify it.
func (s *Slices) MinQuorums() [][]ids.ProcessID { return s.minimal }

// enumerateMinimal finds the minimal quorums by exhaustive subset walk
// (n ≤ MaxSlicesN keeps this 2^n ≤ 64K predicate evaluations). Because
// the predicate is not monotone, minimality is checked against ALL
// proper subsets that are quorums, not just single-member removals.
// Visiting quorums by size, a quorum is minimal iff it contains none
// of the minimal quorums found before it: any smaller quorum inside it
// would contain one of those.
func (s *Slices) enumerateMinimal() [][]ids.ProcessID {
	var quorums []ids.ProcSet
	for set := (ids.ProcSet{}); nextSubset(&set, s.n); {
		if s.isQuorumSet(set) {
			quorums = append(quorums, set)
		}
	}
	sort.SliceStable(quorums, func(a, b int) bool { return quorums[a].Len() < quorums[b].Len() })
	var found []ids.ProcSet
	var minimal [][]ids.ProcessID
	for _, q := range quorums {
		isMin := true
		for _, m := range found {
			if m.SubsetOf(q) {
				isMin = false
				break
			}
		}
		if isMin {
			found = append(found, q)
			minimal = append(minimal, q.Members())
		}
	}
	sort.Slice(minimal, func(a, b int) bool {
		return ids.NewQuorum(minimal[a]).Less(ids.NewQuorum(minimal[b]))
	})
	if minimal == nil {
		minimal = [][]ids.ProcessID{}
	}
	return minimal
}

// Survives reports whether the processes outside the fault set still
// contain a quorum.
func (s *Slices) Survives(faults ids.ProcSet) bool {
	return s.ContainsQuorum(ids.FirstN(s.n).Minus(faults))
}

// String renders the spec in ParseSpec syntax, e.g.
// "slices:n=4;1={2}|{3};2={1};3={4};4={3}" (owner implicit per slice).
func (s *Slices) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "slices:n=%d", s.n)
	for i, list := range s.text {
		fmt.Fprintf(&b, ";%d=", i+1)
		for j, slice := range list {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteByte('{')
			for k, p := range slice {
				if k > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", int(p))
			}
			b.WriteByte('}')
		}
	}
	return b.String()
}

// nextSubset advances set to the next subset of {p_1..p_n} in binary
// counting order, p_1 being the lowest digit, and reports false once
// it wraps back to the empty set. Started from the empty set it visits
// every non-empty subset, Π last.
func nextSubset(set *ids.ProcSet, n int) bool {
	for p := ids.ProcessID(1); int(p) <= n; p++ {
		if !set.Contains(p) {
			set.Add(p)
			return true
		}
		set.Remove(p)
	}
	return false
}

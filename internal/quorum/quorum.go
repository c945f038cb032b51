// Package quorum generalizes the paper's fixed n−f threshold quorums
// into pluggable Byzantine quorum systems, following the "consensus
// beyond thresholds" line of work (Alpos & Cachin): the same selection
// machinery — pick the lexicographically-first quorum consistent with
// the suspect graph — runs unchanged over a threshold rule, a weighted
// threshold, or asymmetric FBAS-style slice specifications.
//
// A System answers three questions:
//
//   - IsQuorum(set): does this exact member set constitute a quorum?
//     The replica's certificate path asks it instead of counting
//     signatures to q.
//   - MinQuorums(): the inclusion-minimal quorums in lexicographic
//     order — the generalized analogue of ids.EnumerateQuorums that
//     view numbers map onto.
//   - Survives(faults): does the system stay available after the fault
//     set is removed (the remaining processes still contain a quorum)?
//
// Whether a spec is SAFE — any two quorums intersect — is not a local
// property of one set, and checking it is coNP-complete in general
// (Lachowski); see check.go for the exact small-n checker and the
// seeded sampler beyond.
package quorum

import (
	"quorumselect/internal/graph"
	"quorumselect/internal/ids"
)

// MaxEnumerateN bounds the instance size for which MinQuorums will
// materialize the minimal-quorum enumeration on non-threshold systems
// (the enumeration is worst-case exponential). Beyond it MinQuorums
// returns nil and callers must use the predicate interfaces instead.
const MaxEnumerateN = 16

// System is a generalized Byzantine quorum system over Π = {p_1..p_n}.
//
// Implementations must be deterministic pure values: every correct
// process constructs the same System from the same spec, and the
// selection rule (Select) depends only on (System, suspect graph) — the
// generalized form of Algorithm 1's agreement argument.
type System interface {
	// N returns |Π|.
	N() int
	// IsQuorum reports whether the given member set is a quorum.
	// Duplicate and out-of-range members are ignored.
	IsQuorum(members []ids.ProcessID) bool
	// MinQuorums returns every inclusion-minimal quorum as a sorted
	// member list, in lexicographic order — or nil when the system is
	// too large to enumerate (see MaxEnumerateN).
	MinQuorums() [][]ids.ProcessID
	// Survives reports whether the processes outside the fault set
	// still contain a quorum (availability under that fault set).
	Survives(faults ids.ProcSet) bool
	// String renders the system as a spec string accepted by ParseSpec.
	String() string
}

// GraphSelector is an optional System fast path: select the
// lexicographically-first minimal quorum that is an independent set of
// the suspect graph without materializing MinQuorums. Threshold systems
// implement it via graph.FirstIndependentSet, weighted systems via
// graph.FirstWeightedIndependentSet.
type GraphSelector interface {
	SelectQuorum(g *graph.Graph) ([]ids.ProcessID, bool)
}

// ContainsQuorumer is an optional System extension answering the
// monotone containment question "does set contain SOME quorum as a
// subset?" — the predicate the intersection checker bipartitions are
// tested with. Monotone systems (threshold, weighted) answer it with
// IsQuorum directly; slice systems need the FBAS fixpoint.
type ContainsQuorumer interface {
	ContainsQuorum(set ids.ProcSet) bool
}

// FromConfig returns the paper's threshold system q = n − f for the
// given configuration — the byte-compatible default every node runs on
// when no generalized spec is supplied.
func FromConfig(cfg ids.Config) System {
	t, err := NewThreshold(cfg.N, cfg.Q())
	if err != nil {
		panic(err) // ids.Config validation already excludes this
	}
	return t
}

// Select returns the lexicographically-first minimal quorum of sys that
// is an independent set of g — the generalized Algorithm 1 line 31.
// Systems implementing GraphSelector answer without enumerating;
// otherwise the cached MinQuorums enumeration is scanned in order.
func Select(sys System, g *graph.Graph) ([]ids.ProcessID, bool) {
	if gs, ok := sys.(GraphSelector); ok {
		return gs.SelectQuorum(g)
	}
	for _, q := range sys.MinQuorums() {
		if g.IsIndependentSet(q) {
			return q, true
		}
	}
	return nil, false
}

// Admits reports whether any minimal quorum of sys is an independent
// set of g — the generalized Algorithm 1 line 27 existence test.
func Admits(sys System, g *graph.Graph) bool {
	_, ok := Select(sys, g)
	return ok
}

// Default returns the system's default quorum: the lexicographically-
// first minimal quorum (selection over the empty suspect graph). For
// the threshold system this is the paper's {p_1..p_q}.
func Default(sys System) ([]ids.ProcessID, bool) {
	return Select(sys, graph.New(sys.N()))
}

// Contains answers the monotone containment question for any System:
// does set contain some quorum as a subset? It prefers the
// ContainsQuorumer fast path, then the MinQuorums enumeration, and
// falls back to IsQuorum itself (exact for monotone systems).
func Contains(sys System, set ids.ProcSet) bool {
	if c, ok := sys.(ContainsQuorumer); ok {
		return c.ContainsQuorum(set)
	}
	if mq := sys.MinQuorums(); mq != nil {
		for _, q := range mq {
			if subsetOf(q, set) {
				return true
			}
		}
		return false
	}
	return sys.IsQuorum(set.Sorted())
}

func subsetOf(members []ids.ProcessID, set ids.ProcSet) bool {
	for _, p := range members {
		if !set.Contains(p) {
			return false
		}
	}
	return true
}

// dedupe returns the distinct members of the list that are valid in a
// system of n processes, as a ProcSet.
func dedupe(members []ids.ProcessID, n int) ids.ProcSet {
	s := ids.NewProcSet()
	for _, p := range members {
		if p.Valid(n) {
			s.Add(p)
		}
	}
	return s
}

package adversary

import (
	"math/rand"
	"time"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
)

// Pair is an unordered process pair; Canonical keeps A < B.
type Pair struct {
	A, B ids.ProcessID
}

// Canonical returns the pair with A < B.
func (p Pair) Canonical() Pair {
	if p.A > p.B {
		p.A, p.B = p.B, p.A
	}
	return p
}

// PairPicker chooses the next suspicion pair from the candidates; it
// must return one of the candidates.
type PairPicker func(candidates []Pair, rng *rand.Rand) Pair

// PickLex picks the lexicographically-first candidate.
func PickLex(candidates []Pair, _ *rand.Rand) Pair { return candidates[0] }

// PickRandom picks uniformly.
func PickRandom(candidates []Pair, rng *rand.Rand) Pair {
	return candidates[rng.Intn(len(candidates))]
}

// PickReverseLex picks the lexicographically-last candidate.
func PickReverseLex(candidates []Pair, _ *rand.Rand) Pair {
	return candidates[len(candidates)-1]
}

// ChurnOptions configures a churn adversary: the Theorem 4 adversary
// of RunQuorumChurn or the leader-targeting one of RunFollowerChurn.
type ChurnOptions struct {
	// F is the failure threshold the adversary plays with.
	F int
	// Picker chooses among admissible suspicion pairs (default
	// PickLex; RunQuorumChurn only).
	Picker PairPicker
	// Seed drives the picker's randomness (RunQuorumChurn only).
	Seed int64
	// SettleTime is how long to run the network after each injection
	// for the quorum to converge (default 1s of virtual time).
	SettleTime time.Duration
	// MaxInjections caps the adversary's moves as a safety net.
	MaxInjections int
}

// ChurnResult reports what the adversary achieved.
type ChurnResult struct {
	// QuorumsIssued is the total number of ⟨QUORUM⟩ events at the
	// observer; Corollary 10 bounds it by 6f+2 for Follower Selection.
	QuorumsIssued int
	// PerEpoch maps epoch → quorums issued in it at the observer; the
	// quantity Theorem 3 bounds by f(f+1) and the paper's simulations
	// bound by C(f+2, 2) for Quorum Selection, and Theorem 9 bounds by
	// 3f+1 for Follower Selection.
	PerEpoch map[uint64]int
	// MaxPerEpoch is the largest PerEpoch value.
	MaxPerEpoch int
	// Injections is how many suspicions the adversary caused.
	Injections int
	// FinalEpoch is the observer's epoch at the end.
	FinalEpoch uint64
	// FinalLeader is the observer's leader at the end (RunFollowerChurn
	// only).
	FinalLeader ids.ProcessID
	// Agreement reports whether all nodes ended on the same quorum.
	Agreement bool
}

// RunQuorumChurn plays the §VII-B adversary strategy against
// Algorithm 1 running on a simulated network.
//
// Strategy (following the proof of Theorem 4): fix F⁺² = the first f+2
// processes. Wait until all correct processes output the same quorum Q;
// then cause one suspicion (a, b) between two F⁺²-members of Q whose
// pair has not been used in the current epoch, never touching the one
// reserved "victim pair" that keeps the move set consistent with some
// choice of f actual faults. Repeat until no admissible pair remains.
//
// Causing a suspicion (a, b) is modeled as the failure detector at a
// publishing ⟨SUSPECTED, {b}⟩ and retracting it after the quorum
// settles — exactly the transient suspicions (omission/timing on a
// single link) the paper's adversary uses. The epoch-stamped suspicion
// matrix retains the suspicion for the rest of the epoch either way.
func RunQuorumChurn(net *sim.Network, nodes map[ids.ProcessID]*core.Node, opts ChurnOptions) ChurnResult {
	if opts.Picker == nil {
		opts.Picker = PickLex
	}
	if opts.SettleTime <= 0 {
		opts.SettleTime = time.Second
	}
	if opts.MaxInjections <= 0 {
		opts.MaxInjections = 10 * ids.TheoremFourBound(opts.F) * (opts.F + 2)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	cfg := net.Config()
	f2 := ids.NewProcSet()
	for i := 1; i <= opts.F+2; i++ {
		f2.Add(ids.ProcessID(i))
	}
	// Reserve the two highest F⁺² members as the potential correct
	// victims: the pair between them is never injected, so all injected
	// pairs touch F = the first f members of F⁺² — a legal adversary.
	victimPair := Pair{A: ids.ProcessID(opts.F + 1), B: ids.ProcessID(opts.F + 2)}

	var observer *core.Node
	for _, p := range cfg.All() {
		if n, ok := nodes[p]; ok {
			observer = n
			break
		}
	}

	used := make(map[uint64]map[Pair]bool) // epoch → pairs injected
	var res ChurnResult

	settle := func() {
		net.Run(net.Now() + opts.SettleTime)
	}
	settle()

	for res.Injections < opts.MaxInjections {
		// All correct processes must have converged before the
		// adversary moves (the proof's "waits until a quorum was
		// output by all correct nodes").
		if _, ok := cluster.Agreed(nodes); !ok {
			settle()
			if _, ok := cluster.Agreed(nodes); !ok {
				break
			}
		}
		epoch := observer.Selector.Epoch()
		q := observer.CurrentQuorum()
		candidates := admissiblePairs(q, f2, victimPair, used[epoch])
		if len(candidates) == 0 {
			break
		}
		pair := opts.Picker(candidates, rng).Canonical()
		if used[epoch] == nil {
			used[epoch] = make(map[Pair]bool)
		}
		used[epoch][pair] = true
		res.Injections++
		// a suspects b, transiently.
		nodes[pair.A].Selector.OnSuspected(ids.NewProcSet(pair.B))
		settle()
		nodes[pair.A].Selector.OnSuspected(ids.NewProcSet())
		settle()
	}

	res.tally(observer.Selector)
	_, res.Agreement = cluster.Agreed(nodes)
	return res
}

// admissiblePairs lists the unordered pairs of F⁺² members inside the
// current quorum whose suspicion has not been injected this epoch,
// excluding the reserved victim pair.
func admissiblePairs(q ids.Quorum, f2 ids.ProcSet, victim Pair, used map[Pair]bool) []Pair {
	members := make([]ids.ProcessID, 0, f2.Len())
	for _, p := range q.Members {
		if f2.Contains(p) {
			members = append(members, p)
		}
	}
	var out []Pair
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			pair := Pair{A: members[i], B: members[j]}.Canonical()
			if pair == victim.Canonical() || used[pair] {
				continue
			}
			out = append(out, pair)
		}
	}
	return out
}

// RunFollowerChurn plays the leader-targeting adversary of §IX against
// Follower Selection (Algorithm 2): the f faulty processes (the
// highest identifiers) repeatedly issue a false suspicion against the
// current leader — the strategy behind Theorem 9's 3f+1 bound, since
// every such suspicion either advances the leader or forces an epoch
// change.
//
// Every injected suspicion has a faulty endpoint, so it is a legal
// post-accuracy adversary move; the run terminates when no injection
// changes the system any more (the correct processes have settled on a
// leader the adversary cannot dislodge).
func RunFollowerChurn(net *sim.Network, nodes map[ids.ProcessID]*follower.Node, opts ChurnOptions) ChurnResult {
	if opts.SettleTime <= 0 {
		opts.SettleTime = time.Second
	}
	if opts.MaxInjections <= 0 {
		opts.MaxInjections = 20 * (ids.CorollaryTenBound(opts.F) + 1)
	}
	cfg := net.Config()
	faulty := ids.NewProcSet()
	for i := cfg.N - opts.F + 1; i <= cfg.N; i++ {
		faulty.Add(ids.ProcessID(i))
	}

	var observer *follower.Node
	for _, p := range cfg.All() {
		if n, ok := nodes[p]; ok && !faulty.Contains(p) {
			observer = n
			break
		}
	}

	// Each faulty process accumulates its (false) suspicions: a real
	// attacker keeps its published row maximal.
	suspecting := make(map[ids.ProcessID]ids.ProcSet)
	for _, p := range faulty.Sorted() {
		suspecting[p] = ids.NewProcSet()
	}

	var res ChurnResult
	settle := func() { net.Run(net.Now() + opts.SettleTime) }
	settle()

	for res.Injections < opts.MaxInjections {
		leader := observer.Selector.Leader()
		epoch := observer.Selector.Epoch()
		// Pick a faulty process that has not yet suspected this leader
		// in this epoch.
		var attacker ids.ProcessID
		for _, x := range faulty.Sorted() {
			if x == leader {
				continue
			}
			if nodes[x].Store.Value(x, leader) < epoch {
				attacker = x
				break
			}
		}
		if attacker == ids.None {
			break // no move changes anything
		}
		res.Injections++
		suspecting[attacker].Add(leader)
		nodes[attacker].Selector.OnSuspected(suspecting[attacker].Clone())
		settle()
		// An injection that moved nothing (e.g. the attacker's star is
		// saturated in the line subgraph) is not retried: the stamp
		// recorded above excludes the pair, so the loop falls through
		// to the next attacker and terminates once every faulty
		// process has suspected the current leader in this epoch.
	}

	res.tally(observer.Selector)
	res.FinalLeader = observer.Selector.Leader()
	_, res.Agreement = cluster.Agreed(nodes)
	return res
}

// selectorTally is what a result reads of the observer's selector;
// core.Selector and follower.Selector both provide it.
type selectorTally interface {
	Epoch() uint64
	QuorumsIssued() int
	QuorumsIssuedInEpoch(e uint64) int
}

// tally records the selector's quorum counts, per epoch up to its
// current one (omitting empty epochs), and its final epoch.
func (res *ChurnResult) tally(sel selectorTally) {
	res.QuorumsIssued = sel.QuorumsIssued()
	res.FinalEpoch = sel.Epoch()
	res.PerEpoch = make(map[uint64]int)
	for e := uint64(1); e <= sel.Epoch(); e++ {
		count := sel.QuorumsIssuedInEpoch(e)
		if count > 0 {
			res.PerEpoch[e] = count
		}
		res.MaxPerEpoch = max(res.MaxPerEpoch, count)
	}
}

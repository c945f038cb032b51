package adversary

import (
	"math/rand"
	"time"

	"quorumselect/internal/core"
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

// ChurnOptions configures the Theorem 4 adversary.
type ChurnOptions struct {
	// F is the failure threshold the adversary plays with.
	F int
	// Picker chooses among admissible suspicion pairs (default
	// PickLex).
	Picker PairPicker
	// Seed drives the picker's randomness.
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
	// observer.
	QuorumsIssued int
	// PerEpoch maps epoch → quorums issued in it at the observer; the
	// quantity Theorem 3 bounds by f(f+1) and the paper's simulations
	// bound by C(f+2, 2).
	PerEpoch map[uint64]int
	// MaxPerEpoch is the largest PerEpoch value.
	MaxPerEpoch int
	// Injections is how many suspicions the adversary caused.
	Injections int
	// FinalEpoch is the observer's epoch at the end.
	FinalEpoch uint64
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
		if !agreement(nodes) {
			settle()
			if !agreement(nodes) {
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

	res.QuorumsIssued = observer.Selector.QuorumsIssued()
	res.FinalEpoch = observer.Selector.Epoch()
	res.PerEpoch, res.MaxPerEpoch = perEpoch(observer.Selector)
	res.Agreement = agreement(nodes)
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

// agreement reports whether every node outputs the same quorum. Both
// core.Node and follower.Node serve CurrentQuorum from their host.
func agreement[N interface{ CurrentQuorum() ids.Quorum }](nodes map[ids.ProcessID]N) bool {
	var first ids.Quorum
	initialized := false
	for _, n := range nodes {
		q := n.CurrentQuorum()
		if !initialized {
			first = q
			initialized = true
			continue
		}
		if !q.Equal(first) {
			return false
		}
	}
	return true
}

// epochTally is what perEpoch reads of a selector; core.Selector and
// follower.Selector both provide it.
type epochTally interface {
	Epoch() uint64
	QuorumsIssuedInEpoch(e uint64) int
}

// perEpoch tallies the quorums a selector issued in each epoch up to
// its current one, omitting empty epochs, and the largest tally.
func perEpoch(sel epochTally) (per map[uint64]int, maxPer int) {
	per = make(map[uint64]int)
	for e := uint64(1); e <= sel.Epoch(); e++ {
		count := sel.QuorumsIssuedInEpoch(e)
		if count > 0 {
			per[e] = count
		}
		maxPer = max(maxPer, count)
	}
	return per, maxPer
}

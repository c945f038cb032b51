package adversary

import (
	"time"

	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
)

// FollowerChurnOptions configures the §IX leader-targeting adversary.
type FollowerChurnOptions struct {
	// F is the failure threshold; the adversary controls the f
	// highest-identifier processes.
	F int
	// SettleTime lets the network converge after each injection
	// (default 1s of virtual time).
	SettleTime time.Duration
	// MaxInjections caps the adversary's moves as a safety net.
	MaxInjections int
}

// FollowerChurnResult reports the churn achieved against Follower
// Selection.
type FollowerChurnResult struct {
	// QuorumsIssued is the total ⟨QUORUM⟩ count at the observer; the
	// quantity Corollary 10 bounds by 6f+2 (two epochs' worth).
	QuorumsIssued int
	// PerEpoch maps epoch → quorums; Theorem 9 bounds each by 3f+1.
	PerEpoch map[uint64]int
	// MaxPerEpoch is the largest PerEpoch value.
	MaxPerEpoch int
	// Injections is how many suspicions the adversary caused.
	Injections int
	// FinalEpoch is the observer's final epoch.
	FinalEpoch uint64
	// FinalLeader is the observer's final leader.
	FinalLeader ids.ProcessID
	// Agreement reports whether all nodes ended on the same quorum.
	Agreement bool
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
func RunFollowerChurn(net *sim.Network, nodes map[ids.ProcessID]*follower.Node, opts FollowerChurnOptions) FollowerChurnResult {
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

	var res FollowerChurnResult
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

	res.QuorumsIssued = observer.Selector.QuorumsIssued()
	res.FinalEpoch = observer.Selector.Epoch()
	res.FinalLeader = observer.Selector.Leader()
	res.PerEpoch, res.MaxPerEpoch = perEpoch(observer.Selector)
	res.Agreement = agreement(nodes)
	return res
}

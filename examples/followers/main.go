// Command followers demonstrates Follower Selection (Algorithm 2,
// §VIII): leader-centric quorum selection for systems with n > 3f,
// where suspicions between followers are tolerated and a worst-case
// adversary can force only O(f) quorum changes (Theorems 9, Corollary
// 10) instead of the Θ(f²) of general Quorum Selection.
//
//	go run ./examples/followers
package main

import (
	"fmt"
	"time"

	"quorumselect/internal/adversary"
	"quorumselect/internal/cluster"
	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
)

func newNet(n, f int) (*sim.Network, map[ids.ProcessID]*follower.Node) {
	cfg := ids.MustConfig(n, f)
	opts := follower.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	fNodes := make(map[ids.ProcessID]*follower.Node, n)
	return cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
		fNodes[at.Proc] = follower.NewNode(opts)
		return cluster.Member{Node: fNodes[at.Proc]}
	}, sim.Options{}).Net, fNodes
}

func main() {
	cfg := ids.MustConfig(7, 2)
	fmt.Printf("Follower Selection, %s (n > 3f required)\n\n", cfg)

	net, nodes := newNet(7, 2)
	fmt.Println("step 1: follower-follower suspicion (p3 suspects p4) — tolerated")
	nodes[3].Selector.OnSuspected(ids.NewProcSet(4))
	net.Run(time.Second)
	n1 := nodes[1]
	fmt.Printf("  leader=%s quorum=%s quorum-changes=%d\n",
		n1.Selector.Leader(), n1.CurrentQuorum(), n1.Selector.QuorumsIssued())
	fmt.Println("  (no-leader-suspicion replaces no-suspicion: only edges touching")
	fmt.Println("   the leader matter, which is what buys the O(f) bound)")

	fmt.Println("\nstep 2: a follower suspects the leader (p3 suspects p1)")
	nodes[3].Selector.OnSuspected(ids.NewProcSet(4, 1))
	net.Run(net.Now() + time.Second)
	for _, p := range []ids.ProcessID{1, 4, 7} {
		n := nodes[p]
		fmt.Printf("  %s: leader=%s quorum=%s stable=%v\n",
			p, n.Selector.Leader(), n.CurrentQuorum(), n.Selector.Stable())
	}
	fmt.Println("  the maximal line subgraph absorbed the edge (p1,p3); its leader is")
	fmt.Println("  now p2, which selected q−1 possible followers and broadcast FOLLOWERS.")

	fmt.Println("\nstep 3: the worst-case leader-targeting adversary (fresh system)")
	for f := 1; f <= 4; f++ {
		n := 3*f + 1
		netA, nodesA := newNet(n, f)
		res := adversary.RunFollowerChurn(netA, nodesA, adversary.FollowerChurnOptions{F: f})
		fmt.Printf("  f=%d n=%2d: quorums=%2d max/epoch=%2d  bounds: 3f+1=%2d  6f+2=%2d  final-leader=%s\n",
			f, n, res.QuorumsIssued, res.MaxPerEpoch,
			ids.TheoremNineBound(f), ids.CorollaryTenBound(f), res.FinalLeader)
	}
	fmt.Println("\nlinear in f — compare examples/adversarial for the Θ(f²) of Algorithm 1.")
}

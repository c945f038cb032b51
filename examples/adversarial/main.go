// Command adversarial plays the paper's §VII-B lower-bound adversary
// against Algorithm 1 and prints the quorum churn it achieves next to
// the paper's bounds: the f(f+1) per-epoch upper bound from the proof
// of Theorem 3, and the C(f+2,2) that both Theorem 4 (as a lower bound
// for any deterministic algorithm) and the paper's simulations (as the
// empirical maximum for Algorithm 1) identify.
//
//	go run ./examples/adversarial
package main

import (
	"fmt"

	"quorumselect/internal/adversary"
	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/experiments"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
)

func main() {
	fmt.Println("Theorem 4 adversary vs Algorithm 1")
	fmt.Println("----------------------------------")
	fmt.Println("strategy: all suspicions between the f+2 lowest processes (F⁺²),")
	fmt.Println("one per settled quorum, never touching the reserved victim pair.")
	fmt.Println()

	for f := 1; f <= 4; f++ {
		n := 3*f + 1
		cfg := ids.MustConfig(n, f)
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		coreNodes := make(map[ids.ProcessID]*core.Node, n)
		net := cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
			coreNodes[at.Proc] = core.NewNode(opts)
			return cluster.Member{Node: coreNodes[at.Proc]}
		}, sim.Options{}).Net
		res := adversary.RunQuorumChurn(net, coreNodes, adversary.ChurnOptions{F: f})
		fmt.Printf("f=%d n=%2d: suspicions=%2d quorums-issued=%2d (+1 initial = %2d proposed)"+
			"  bounds: f(f+1)=%2d  C(f+2,2)=%2d  agreement=%v\n",
			f, n, res.Injections, res.QuorumsIssued, res.QuorumsIssued+1,
			ids.TheoremThreeBound(f), ids.TheoremFourBound(f), res.Agreement)
	}

	fmt.Println()
	fmt.Println("full experiment tables (E1/E2, max over adversary heuristics):")
	fmt.Println()
	e1 := experiments.E1QuorumChanges(4, 4)
	fmt.Println(e1.Render())
	e2 := experiments.E2LowerBound(4)
	fmt.Println(e2.Render())
}

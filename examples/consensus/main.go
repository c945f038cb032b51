// Command consensus runs the Tendermint-style proposer-rotating BFT
// engine on top of Quorum Selection — the paper's §X future-work
// direction ("how best to integrate Quorum Selection in different BFT
// algorithms") realized for the proposer-rotation family.
//
// Phase 1 decides a few heights fault-free (watch the proposer rotate);
// phase 2 crashes the next proposer: the failure detector's PROPOSAL
// expectation and the round timer both fire, the round rotates past the
// crash, and Quorum Selection permanently removes the faulty process
// from the participant set.
//
//	go run ./examples/consensus
package main

import (
	"fmt"
	"time"

	qs "quorumselect"
	"quorumselect/internal/cluster"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

func main() {
	cfg := qs.MustConfig(4, 1)
	fmt.Printf("Tendermint-style consensus on Quorum Selection, %s\n\n", cfg)

	nodeOpts := qs.DefaultNodeOptions()
	nodeOpts.HeartbeatPeriod = 20 * time.Millisecond
	replicas := make(map[qs.ProcessID]*qs.ConsensusReplica, cfg.N)
	c := cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
		node, r := qs.NewConsensusNode(qs.ConsensusOptions{}, nodeOpts)
		replicas[at.Proc] = r
		return cluster.Member{Node: node}
	}, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)})
	net := c.Net

	fmt.Println("phase 1: three heights, fault-free — proposers rotate")
	for i := 1; i <= 3; i++ {
		replicas[1].Submit(&wire.Request{Client: 1, Seq: uint64(i),
			Op: []byte(fmt.Sprintf("set h%d decided", i))})
	}
	net.RunUntil(func() bool { return replicas[1].LastDecided() >= 3 }, 30*time.Second)
	for _, d := range replicas[1].Decisions() {
		fmt.Printf("  height %d decided %q (proposer %s)\n",
			d.Slot, d.Op, replicas[1].Proposer(d.Slot, 0))
	}

	fmt.Println("\nphase 2: crash the proposer of the next height")
	next := replicas[1].Proposer(replicas[1].Height(), 0)
	fmt.Printf("  next proposer is %s — crashing it\n", next)
	c.Crash(next, false)
	replicas[1].Submit(&wire.Request{Client: 1, Seq: 4, Op: []byte("set h4 survived")})
	survivors := []qs.ProcessID{}
	for _, p := range cfg.All() {
		if p != next {
			survivors = append(survivors, p)
		}
	}
	ok := net.RunUntil(func() bool {
		for _, p := range survivors {
			if replicas[p].LastDecided() < 4 || replicas[p].Active().Contains(next) {
				return false
			}
		}
		return true
	}, 60*time.Second)
	fmt.Printf("  recovered: %v\n", ok)
	for _, p := range survivors {
		r := replicas[p]
		fmt.Printf("  %s: decided=%d active=%s\n", p, r.LastDecided(), r.Active())
	}
	fmt.Println("\nthe round timer skipped the silent proposer, its omission was")
	fmt.Println("suspected via the PROPOSAL expectation, and Quorum Selection")
	fmt.Println("removed it from the participant set for good.")
}

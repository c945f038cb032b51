// Command chain demonstrates Chain Selection — the paper's second §X
// future-work case ("e.g. when processes are communicating along a
// chain"): BChain-style chain replication whose chain is the quorum
// issued by Algorithm 1, instead of BChain's replace-with-a-fresh-spare
// mechanism the paper criticizes.
//
//	go run ./examples/chain
package main

import (
	"fmt"
	"time"

	"quorumselect/internal/bchain"
	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

func main() {
	cfg := ids.MustConfig(4, 1)
	fmt.Printf("Chain Selection (chain = selected quorum), %s\n\n", cfg)

	nodeOpts := core.DefaultNodeOptions()
	nodeOpts.HeartbeatPeriod = 20 * time.Millisecond
	replicas := make(map[ids.ProcessID]*bchain.SelectedReplica, cfg.N)
	c := cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
		node, r := bchain.NewSelectionNode(bchain.Options{}, nodeOpts)
		replicas[at.Proc] = r
		return cluster.Member{Node: node}
	}, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)})
	net := c.Net

	fmt.Println("phase 1: requests travel down the chain and acks travel back")
	for i := 1; i <= 3; i++ {
		replicas[1].Submit(&wire.Request{Client: 1, Seq: uint64(i),
			Op: []byte(fmt.Sprintf("set k%d v%d", i, i))})
	}
	net.RunUntil(func() bool { return replicas[1].LastExecuted() >= 3 }, 10*time.Second)
	m := net.Metrics()
	fmt.Printf("  chain %v executed %d requests\n", replicas[1].Chain(), replicas[1].LastExecuted())
	fmt.Printf("  chain messages: %d forwards + %d acks = 2(q−1) per request\n",
		m.Counter("bchain.forward.sent"), m.Counter("bchain.ack.sent"))

	fmt.Println("\nphase 2: the middle chain member p2 crashes")
	c.Crash(2, false)
	replicas[1].Submit(&wire.Request{Client: 1, Seq: 4, Op: []byte("set k4 v4")})
	ok := net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 3, 4} {
			chain := ids.FromSlice(replicas[p].Chain())
			if chain.Contains(2) || replicas[p].LastExecuted() < 4 {
				return false
			}
		}
		return true
	}, 30*time.Second)
	fmt.Printf("  recovered: %v\n", ok)
	for _, p := range []ids.ProcessID{1, 3, 4} {
		fmt.Printf("  %s: chain=%v executed=%d\n", p, replicas[p].Chain(), replicas[p].LastExecuted())
	}
	fmt.Println("\nthe ack expectation detected the break, Quorum Selection issued")
	fmt.Println("{p1,p3,p4}, and the head re-forwarded the in-flight request along")
	fmt.Println("the new chain — no assumed-correct spare needed (contrast BChain).")
}

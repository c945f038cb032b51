// Command smr runs XPaxos state-machine replication on top of Quorum
// Selection (the integration of §V of the paper) on the deterministic
// simulator: a healthy phase, a crash of an active-quorum member, and
// the recovery through suspicion → quorum change → view change.
//
//	go run ./examples/smr
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
	fmt.Printf("XPaxos on Quorum Selection, %s\n\n", cfg)

	nodeOpts := qs.DefaultNodeOptions()
	nodeOpts.HeartbeatPeriod = 20 * time.Millisecond

	machines := make(map[qs.ProcessID]*qs.KVMachine, cfg.N)
	replicas := make(map[qs.ProcessID]*qs.XPaxosReplica, cfg.N)
	c := cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
		kv := qs.NewKVMachine()
		node, replica := qs.NewXPaxosNode(qs.XPaxosOptions{SM: kv}, nodeOpts)
		machines[at.Proc] = kv
		replicas[at.Proc] = replica
		return cluster.Member{Node: node}
	}, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)})
	net := c.Net

	fmt.Println("phase 1: healthy operation — 5 requests through leader p1")
	for i := 1; i <= 5; i++ {
		replicas[1].Submit(&wire.Request{Client: 7, Seq: uint64(i),
			Op: []byte(fmt.Sprintf("set key%d value%d", i, i))})
	}
	net.Run(time.Second)
	for _, p := range []qs.ProcessID{1, 2, 3} {
		fmt.Printf("  %s: executed=%d view=%d quorum=%s\n",
			p, replicas[p].LastExecuted(), replicas[p].View(), replicas[p].ActiveQuorum())
	}
	m := net.Metrics()
	fmt.Printf("  messages so far: PREPARE=%d COMMIT=%d (Fig 2 pattern: q−1 and q(q−1) per request)\n\n",
		m.Counter("msg.sent.PREPARE"), m.Counter("msg.sent.COMMIT"))

	fmt.Println("phase 2: active-quorum member p3 crashes; a request is in flight")
	c.Crash(3, false)
	replicas[1].Submit(&wire.Request{Client: 7, Seq: 6, Op: []byte("set key6 value6")})
	ok := net.RunUntil(func() bool {
		for _, p := range []qs.ProcessID{1, 2, 4} {
			if replicas[p].LastExecuted() < 6 {
				return false
			}
		}
		return true
	}, 30*time.Second)
	fmt.Printf("  recovered: %v\n", ok)
	for _, p := range []qs.ProcessID{1, 2, 4} {
		fmt.Printf("  %s: executed=%d view=%d quorum=%s viewchanges=%d\n",
			p, replicas[p].LastExecuted(), replicas[p].View(),
			replicas[p].ActiveQuorum(), replicas[p].ViewChanges())
	}

	fmt.Println("\nphase 3: state machine agreement across the surviving quorum")
	for _, key := range []string{"key1", "key6"} {
		for _, p := range []qs.ProcessID{1, 2, 4} {
			v, _ := machines[p].Get(key)
			fmt.Printf("  %s[%s] = %q\n", p, key, v)
		}
	}
	fmt.Println("\nthe commit expectations (⟨EXPECT COMMIT⟩, §V-A) detected p3's omission,")
	fmt.Println("Quorum Selection excluded it, and the view change re-proposed the log.")
}

package quorumselect_test

import (
	"fmt"
	"strings"
	"time"

	qs "quorumselect"
	"quorumselect/internal/adversary"
	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/experiments"
	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
)

// Example reproduces the README quick start: a simulated 4-process
// system tolerating one fault, where a single suspicion moves every
// correct process to the same new quorum.
func Example() {
	cfg := qs.MustConfig(4, 1)
	opts := qs.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0 // suspicions injected manually below
	cluster := qs.NewSimulatedCluster(cfg, qs.ClusterOptions{Node: &opts})

	// p1's failure detector suspects p2 (e.g. an omitted message):
	cluster.Node(1).Selector.OnSuspected(qs.NewProcSet(2))
	cluster.Run(time.Second)

	quorum, agreed := cluster.Agreed()
	fmt.Println(agreed, quorum)
	// Output: true {p1,p3,p4}
}

// ExampleNewSimulatedFollowerCluster shows Follower Selection: a
// suspicion against the leader moves the whole system to the next
// leader's FOLLOWERS choice, while follower-follower suspicions are
// tolerated.
func ExampleNewSimulatedFollowerCluster() {
	cfg := qs.MustConfig(7, 2) // n > 3f required
	opts := qs.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	cluster := qs.NewSimulatedFollowerCluster(cfg, qs.ClusterOptions{Node: &opts})

	cluster.Node(3).Selector.OnSuspected(qs.NewProcSet(1)) // p3 suspects the leader
	cluster.Run(time.Second)

	quorum, agreed := cluster.Agreed()
	fmt.Println(agreed, quorum.Leader)
	// Output: true p2
}

// ExampleNewXPaxosNode runs replicated state-machine commands through
// XPaxos composed with Quorum Selection on the simulator.
func ExampleNewXPaxosNode() {
	cfg := qs.MustConfig(4, 1)
	opts := qs.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0

	// Build one node per process; the cluster helper is for plain
	// selection, so wire the replicas through the simulator directly.
	kv := qs.NewKVMachine()
	node1, replica1 := qs.NewXPaxosNode(qs.XPaxosOptions{SM: kv}, opts)
	nodes := map[qs.ProcessID]qs.RuntimeNode{1: node1}
	replicas := map[qs.ProcessID]*qs.XPaxosReplica{1: replica1}
	for _, p := range cfg.All()[1:] {
		node, replica := qs.NewXPaxosNode(qs.XPaxosOptions{}, opts)
		nodes[p] = node
		replicas[p] = replica
	}
	cluster := qs.NewSimulatedClusterOf(cfg, nodes, qs.ClusterOptions{})

	replica1.Submit(&qs.Request{Client: 1, Seq: 1, Op: []byte("set greeting hello")})
	cluster.RunUntil(func() bool { return replica1.LastExecuted() >= 1 }, time.Minute)

	v, _ := kv.Get("greeting")
	fmt.Println(v)
	// Output: hello
}

// Example_quickstart is the smallest end-to-end use of the library: a
// simulated 4-process system (f = 1) running the full Quorum Selection
// stack of the paper — failure detector, eventually-consistent
// suspicion matrix, suspect-graph selection (Algorithm 1).
//
//	go test -run Example_quickstart -v .
func Example_quickstart() {
	cfg := qs.MustConfig(4, 1)
	opts := qs.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0 // suspicions injected manually below
	cluster := qs.NewSimulatedCluster(cfg, qs.ClusterOptions{Node: &opts})
	printQuorums := func() {
		for _, p := range cfg.All() {
			n := cluster.Node(p)
			fmt.Printf("  %s: quorum=%s epoch=%d\n", p, n.CurrentQuorum(), n.Selector.Epoch())
		}
	}
	fmt.Printf("system %s, default quorum %s\n", cfg, cluster.Node(1).CurrentQuorum())

	// Step 1: p1's failure detector suspects p2 (an omission on the
	// p2→p1 link). The edge (p1,p2) lands in the suspicion matrix, and
	// every process selects the lexicographically-first independent set
	// of the suspect graph.
	fmt.Println("step 1: p1 suspects p2")
	cluster.Node(1).Selector.OnSuspected(qs.NewProcSet(2))
	cluster.Run(time.Second)
	printQuorums()
	quorum, agreed := cluster.Agreed()
	fmt.Println("  agreed:", agreed, quorum)

	// Step 2: an edge that does not connect two quorum members never
	// triggers a change (Lemma 2).
	fmt.Println("step 2: p3 also suspects p2")
	before := cluster.Node(2).Selector.QuorumsIssued()
	cluster.Node(3).Selector.OnSuspected(qs.NewProcSet(2))
	cluster.Run(cluster.Now() + time.Second)
	fmt.Println("  quorum changes at p2:", cluster.Node(2).Selector.QuorumsIssued()-before)

	// Step 3: edges (p1,p2), (p2,p3), (p3,p4) leave no independent set
	// of size 3, so processes advance the epoch (Algorithm 1, line 28).
	// Only suspicions still current are re-stamped into the new epoch:
	// p3's suspicion of p4 survives, and p2 rejoins the quorum.
	fmt.Println("step 3: p1 retracts, p3 now suspects p4")
	cluster.Node(1).Selector.OnSuspected(qs.NewProcSet())
	cluster.Node(3).Selector.OnSuspected(qs.NewProcSet(4))
	cluster.Run(cluster.Now() + time.Second)
	printQuorums()
	// Output:
	// system n=4 f=1 q=3, default quorum {p1,p2,p3}
	// step 1: p1 suspects p2
	//   p1: quorum={p1,p3,p4} epoch=1
	//   p2: quorum={p1,p3,p4} epoch=1
	//   p3: quorum={p1,p3,p4} epoch=1
	//   p4: quorum={p1,p3,p4} epoch=1
	//   agreed: true {p1,p3,p4}
	// step 2: p3 also suspects p2
	//   quorum changes at p2: 0
	// step 3: p1 retracts, p3 now suspects p4
	//   p1: quorum={p1,p2,p3} epoch=2
	//   p2: quorum={p1,p2,p3} epoch=2
	//   p3: quorum={p1,p2,p3} epoch=2
	//   p4: quorum={p1,p2,p3} epoch=2
}

// Example_smr runs XPaxos state-machine replication on top of Quorum
// Selection (§V of the paper) on the deterministic simulator: a healthy
// phase, a crash of an active-quorum member, and recovery through
// suspicion → quorum change → view change.
//
//	go test -run Example_smr -v .
func Example_smr() {
	cfg := qs.MustConfig(4, 1)
	nodeOpts := qs.DefaultNodeOptions()
	nodeOpts.HeartbeatPeriod = 20 * time.Millisecond
	machines := make(map[qs.ProcessID]*qs.KVMachine, cfg.N)
	replicas := make(map[qs.ProcessID]*qs.XPaxosReplica, cfg.N)
	c := cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
		machines[at.Proc] = qs.NewKVMachine()
		node, replica := qs.NewXPaxosNode(qs.XPaxosOptions{SM: machines[at.Proc]}, nodeOpts)
		replicas[at.Proc] = replica
		return cluster.Member{Node: node}
	}, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)})
	report := func(ps ...qs.ProcessID) {
		for _, p := range ps {
			r := replicas[p]
			fmt.Printf("  %s: executed=%d view=%d quorum=%s\n", p, r.LastExecuted(), r.View(), r.ActiveQuorum())
		}
	}

	fmt.Println("phase 1: 5 requests through leader p1")
	for i := 1; i <= 5; i++ {
		replicas[1].Submit(&qs.Request{Client: 7, Seq: uint64(i), Op: []byte(fmt.Sprintf("set key%d value%d", i, i))})
	}
	c.Net.Run(time.Second)
	report(1, 2, 3)
	// Fig 2's normal case: q−1 PREPAREs and q(q−1) COMMITs per request.
	m := c.Net.Metrics()
	fmt.Printf("  PREPARE=%d COMMIT=%d\n", m.Counter("msg.sent.PREPARE"), m.Counter("msg.sent.COMMIT"))

	// The commit expectations (⟨EXPECT COMMIT⟩, §V-A) detect p3's
	// omission, Quorum Selection excludes it, and the view change
	// re-proposes the log.
	fmt.Println("phase 2: p3 crashes with a request in flight")
	c.Crash(3, false)
	replicas[1].Submit(&qs.Request{Client: 7, Seq: 6, Op: []byte("set key6 value6")})
	ok := c.Net.RunUntil(func() bool {
		return replicas[1].LastExecuted() >= 6 && replicas[2].LastExecuted() >= 6 && replicas[4].LastExecuted() >= 6
	}, 30*time.Second)
	fmt.Println("  recovered:", ok)
	report(1, 2, 4)

	fmt.Println("phase 3: the surviving quorum agrees")
	for _, key := range []string{"key1", "key6"} {
		for _, p := range []qs.ProcessID{1, 2, 4} {
			v, _ := machines[p].Get(key)
			fmt.Printf("  %s[%s] = %q\n", p, key, v)
		}
	}
	// Output:
	// phase 1: 5 requests through leader p1
	//   p1: executed=5 view=0 quorum={p1,p2,p3}
	//   p2: executed=5 view=0 quorum={p1,p2,p3}
	//   p3: executed=5 view=0 quorum={p1,p2,p3}
	//   PREPARE=10 COMMIT=30
	// phase 2: p3 crashes with a request in flight
	//   recovered: true
	//   p1: executed=6 view=1 quorum={p1,p2,p4}
	//   p2: executed=6 view=1 quorum={p1,p2,p4}
	//   p4: executed=6 view=1 quorum={p1,p2,p4}
	// phase 3: the surviving quorum agrees
	//   p1[key1] = "value1"
	//   p2[key1] = "value1"
	//   p4[key1] = "value1"
	//   p1[key6] = "value6"
	//   p2[key6] = "value6"
	//   p4[key6] = "value6"
}

// Example_adversarial plays the paper's §VII-B lower-bound adversary
// against Algorithm 1: all suspicions fall between the f+2 lowest
// processes (F⁺²), one per settled quorum, never touching the reserved
// victim pair. The churn it achieves is printed beside the f(f+1)
// per-epoch upper bound of Theorem 3 and the C(f+2,2) that Theorem 4
// (a lower bound for any deterministic algorithm) and the paper's
// simulations (the empirical maximum for Algorithm 1) both identify.
// The E1/E2 tables take the maximum over adversary heuristics.
//
//	go test -run Example_adversarial -v .
func Example_adversarial() {
	for f := 1; f <= 4; f++ {
		n := 3*f + 1
		cfg := ids.MustConfig(n, f)
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		net, nodes := cluster.Nodes(cfg, func(ids.ProcessID) (*core.Node, bool) {
			return core.NewNode(opts), true
		}, sim.Options{})
		res := adversary.RunQuorumChurn(net, nodes, adversary.ChurnOptions{F: f})
		fmt.Printf("f=%d n=%d: suspicions=%d quorums-issued=%d bounds: f(f+1)=%d C(f+2,2)=%d agreement=%v\n",
			f, n, res.Injections, res.QuorumsIssued,
			ids.TheoremThreeBound(f), ids.TheoremFourBound(f), res.Agreement)
	}
	e1, e2 := experiments.E1QuorumChanges(4, 4), experiments.E2LowerBound(4)
	printTable(e1.Render())
	printTable(e2.Render())
	// Output:
	// f=1 n=4: suspicions=2 quorums-issued=2 bounds: f(f+1)=2 C(f+2,2)=3 agreement=true
	// f=2 n=7: suspicions=5 quorums-issued=5 bounds: f(f+1)=6 C(f+2,2)=6 agreement=true
	// f=3 n=10: suspicions=9 quorums-issued=9 bounds: f(f+1)=12 C(f+2,2)=10 agreement=true
	// f=4 n=13: suspicions=14 quorums-issued=14 bounds: f(f+1)=20 C(f+2,2)=15 agreement=true
	// E1 — Quorum Selection: adversarial quorum changes per epoch (Thm 3 / §VII-A)
	//   f  n   max-issued/epoch  proposed(+initial)  bound f(f+1)  sim-bound C(f+2,2)  within-bounds
	//   -  --  ----------------  ------------------  ------------  ------------------  -------------
	//   1  4   2                 3                   2             3                   true
	//   2  7   5                 6                   6             6                   true
	//   3  10  9                 10                  12            10                  true
	//   4  13  14                15                  20            15                  true
	//   note: max over adversary heuristics (lex, revlex, random) and seeds
	//   note: paper: 'simulations suggest Algorithm 1 allows at most C(f+2,2) quorums in one epoch'
	// E2 — Lower bound (Thm 4): adversary-forced quorum proposals vs C(f+2,2)
	//   f  n   injections  proposed(+initial)  C(f+2,2)  achieved/bound
	//   -  --  ----------  ------------------  --------  --------------
	//   1  4   2           3                   3         1.00
	//   2  7   5           6                   6         1.00
	//   3  10  9           10                  10        1.00
	//   4  13  14          15                  15        1.00
	//   note: adversary per the Thm 4 proof: all suspicions inside F⁺², victim pair reserved
}

// printTable prints a rendered experiment table without the column
// padding at line ends, which an Output block cannot hold.
func printTable(rendered string) {
	for _, line := range strings.Split(strings.TrimSpace(rendered), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// Example_followers demonstrates Follower Selection (Algorithm 2,
// §VIII) for systems with n > 3f: suspicions between followers are
// tolerated (no-leader-suspicion replaces no-suspicion), and a
// worst-case adversary forces only O(f) quorum changes (Theorem 9,
// Corollary 10) instead of Algorithm 1's Θ(f²) (Example_adversarial).
//
//	go test -run Example_followers -v .
func Example_followers() {
	newNet := func(n, f int) (*sim.Network, map[ids.ProcessID]*follower.Node) {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		return cluster.Nodes(ids.MustConfig(n, f), func(ids.ProcessID) (*follower.Node, bool) {
			return follower.NewNode(opts), true
		}, sim.Options{})
	}

	net, nodes := newNet(7, 2)
	fmt.Println("step 1: p3 suspects follower p4 (tolerated)")
	nodes[3].Selector.OnSuspected(ids.NewProcSet(4))
	net.Run(time.Second)
	fmt.Printf("  quorum=%s quorum-changes=%d\n", nodes[1].CurrentQuorum(), nodes[1].Selector.QuorumsIssued())

	// The maximal line subgraph absorbs the edge (p1,p3); its leader is
	// now p2, which selects q−1 followers and broadcasts FOLLOWERS.
	fmt.Println("step 2: p3 suspects the leader p1")
	nodes[3].Selector.OnSuspected(ids.NewProcSet(4, 1))
	net.Run(net.Now() + time.Second)
	for _, p := range []ids.ProcessID{1, 4, 7} {
		fmt.Printf("  %s: quorum=%s stable=%v\n", p, nodes[p].CurrentQuorum(), nodes[p].Selector.Stable())
	}

	fmt.Println("step 3: the leader-targeting adversary, fresh systems")
	for f := 1; f <= 4; f++ {
		n := 3*f + 1
		netA, nodesA := newNet(n, f)
		res := adversary.RunFollowerChurn(netA, nodesA, adversary.ChurnOptions{F: f})
		fmt.Printf("  f=%d n=%d: quorums=%d max/epoch=%d bounds: 3f+1=%d 6f+2=%d final-leader=%s\n",
			f, n, res.QuorumsIssued, res.MaxPerEpoch,
			ids.TheoremNineBound(f), ids.CorollaryTenBound(f), res.FinalLeader)
	}
	// Output:
	// step 1: p3 suspects follower p4 (tolerated)
	//   quorum=⟨leader=p1, {p1,p2,p3,p4,p5}⟩ quorum-changes=0
	// step 2: p3 suspects the leader p1
	//   p1: quorum=⟨leader=p2, {p1,p2,p3,p4,p5}⟩ stable=true
	//   p4: quorum=⟨leader=p2, {p1,p2,p3,p4,p5}⟩ stable=true
	//   p7: quorum=⟨leader=p2, {p1,p2,p3,p4,p5}⟩ stable=true
	// step 3: the leader-targeting adversary, fresh systems
	//   f=1 n=4: quorums=2 max/epoch=2 bounds: 3f+1=4 6f+2=8 final-leader=p3
	//   f=2 n=7: quorums=4 max/epoch=4 bounds: 3f+1=7 6f+2=14 final-leader=p5
	//   f=3 n=10: quorums=6 max/epoch=6 bounds: 3f+1=10 6f+2=20 final-leader=p7
	//   f=4 n=13: quorums=8 max/epoch=8 bounds: 3f+1=13 6f+2=26 final-leader=p9
}

// Example_consensus runs the Tendermint-style proposer-rotating BFT
// engine on top of Quorum Selection — the paper's §X future-work
// direction realized for the proposer-rotation family. Phase 1 decides
// three heights fault-free while the proposer rotates. Phase 2 crashes
// the next proposer: the round timer skips it, the failure detector's
// PROPOSAL expectation suspects it, and Quorum Selection removes it
// from the participant set for good.
//
//	go test -run Example_consensus -v .
func Example_consensus() {
	cfg := qs.MustConfig(4, 1)
	nodeOpts := qs.DefaultNodeOptions()
	nodeOpts.HeartbeatPeriod = 20 * time.Millisecond
	replicas := make(map[qs.ProcessID]*qs.ConsensusReplica, cfg.N)
	c := cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
		node, r := qs.NewConsensusNode(qs.ConsensusOptions{}, nodeOpts)
		replicas[at.Proc] = r
		return cluster.Member{Node: node}
	}, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)})

	fmt.Println("phase 1: three heights, fault-free")
	for i := 1; i <= 3; i++ {
		replicas[1].Submit(&qs.Request{Client: 1, Seq: uint64(i), Op: []byte(fmt.Sprintf("set h%d decided", i))})
	}
	c.Net.RunUntil(func() bool { return replicas[1].LastExecuted() >= 3 }, 30*time.Second)
	for _, d := range replicas[1].Executions() {
		fmt.Printf("  height %d decided %q (proposer %s)\n", d.Slot, d.Op, replicas[1].Proposer(d.Slot, 0))
	}

	next := replicas[1].Proposer(replicas[1].Height(), 0)
	fmt.Printf("phase 2: crash the next proposer, %s\n", next)
	c.Crash(next, false)
	replicas[1].Submit(&qs.Request{Client: 1, Seq: 4, Op: []byte("set h4 survived")})
	var survivors []qs.ProcessID
	for _, p := range cfg.All() {
		if p != next {
			survivors = append(survivors, p)
		}
	}
	ok := c.Net.RunUntil(func() bool {
		for _, p := range survivors {
			if replicas[p].LastExecuted() < 4 || replicas[p].Active().Contains(next) {
				return false
			}
		}
		return true
	}, 60*time.Second)
	fmt.Println("  recovered:", ok)
	for _, p := range survivors {
		fmt.Printf("  %s: decided=%d active=%s\n", p, replicas[p].LastExecuted(), replicas[p].Active())
	}
	// Output:
	// phase 1: three heights, fault-free
	//   height 1 decided "set h1 decided" (proposer p2)
	//   height 2 decided "set h2 decided" (proposer p3)
	//   height 3 decided "set h3 decided" (proposer p1)
	// phase 2: crash the next proposer, p2
	//   recovered: true
	//   p1: decided=4 active={p1,p3,p4}
	//   p3: decided=4 active={p1,p3,p4}
	//   p4: decided=4 active={p1,p3,p4}
}

// Example_cluster runs XPaxos on Quorum Selection over real TCP
// loopback — the protocol code the simulator drives, on sockets
// (internal/transport): four HMAC-authenticated hosts, live client
// traffic, and the crash of a follower in the leader's active quorum.
// Only outcomes are printed; views and timings vary from run to run.
//
//	go test -run Example_cluster -v .
func Example_cluster() {
	cfg := qs.MustConfig(4, 1)
	auth := qs.NewHMACAuth(cfg, []byte("example-cluster-secret"))
	hosts := make(map[qs.ProcessID]*qs.Host, cfg.N)
	replicas := make(map[qs.ProcessID]*qs.XPaxosReplica, cfg.N)
	for _, p := range cfg.All() {
		nodeOpts := qs.DefaultNodeOptions()
		// Hosts start one by one and learn peer addresses only after all
		// are up. At the default 40 ms base timeout, boot itself raises
		// false suspicions and a storm of view changes (ROADMAP item 4),
		// so the detector is sized for boot, as in the transport's
		// durable-cluster tests: the crash below is the only suspicion.
		nodeOpts.FD.BaseTimeout = 2 * time.Second
		nodeOpts.FD.MaxTimeout = 4 * time.Second
		node, replica := qs.NewXPaxosNode(qs.XPaxosOptions{}, nodeOpts)
		host, err := qs.NewTCPHost(qs.HostConfig{Self: p, System: cfg, Auth: auth, Seed: int64(p)}, node)
		if err != nil {
			fmt.Println("host:", err)
			return
		}
		hosts[p], replicas[p] = host, replica
	}
	defer func() {
		for _, h := range hosts {
			h.Close()
		}
	}()
	for _, p := range cfg.All() {
		for _, q := range cfg.All() {
			if p != q {
				hosts[p].SetPeerAddr(q, hosts[q].Addr())
			}
		}
	}
	// Replica state belongs to each host's event loop; read it there.
	quorumAt := func(p qs.ProcessID) (q qs.Quorum) {
		hosts[p].Do(func() { q = replicas[p].ActiveQuorum() })
		return q
	}
	executedBy := func(q qs.Quorum, want uint64) bool {
		for _, p := range q.Members {
			var exec uint64
			hosts[p].Do(func() { exec = replicas[p].LastExecuted() })
			if exec < want {
				return false
			}
		}
		return true
	}
	submit := func(p qs.ProcessID, seq uint64) {
		hosts[p].Do(func() {
			replicas[p].Submit(&qs.Request{Client: 42, Seq: seq, Op: []byte(fmt.Sprintf("set k%d v%d", seq, seq))})
		})
	}

	for seq := uint64(1); seq <= 5; seq++ {
		submit(1, seq)
	}
	leader := quorumAt(1).EffectiveLeader()
	if !waitFor(10*time.Second, func() bool { return executedBy(quorumAt(leader), 5) }) {
		fmt.Println("phase 1 did not commit")
		return
	}
	fmt.Println("5 executed on the active quorum")

	// The leader is the lowest member, so the highest is a follower.
	active := quorumAt(leader)
	victim := active.Members[len(active.Members)-1]
	hosts[victim].Close()
	fmt.Println("killed an active follower")

	submit(leader, 6)
	recovered := waitFor(30*time.Second, func() bool { return !quorumAt(leader).Contains(victim) })
	fmt.Println("recovered:", recovered)
	if waitFor(10*time.Second, func() bool { return executedBy(quorumAt(leader), 6) }) {
		fmt.Println("6 executed on the new quorum")
	}
	// Output:
	// 5 executed on the active quorum
	// killed an active follower
	// recovered: true
	// 6 executed on the new quorum
}

// waitFor polls pred every 20 ms until it holds or the timeout passes.
func waitFor(timeout time.Duration, pred func() bool) bool {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if pred() {
			return true
		}
	}
	return pred()
}

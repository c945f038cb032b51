package follower_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"quorumselect/internal/adversary"
	"quorumselect/internal/core"
	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
)

// TestRandomizedFaultInjection drives Follower Selection stacks through
// randomized fault scenarios and checks the §VIII properties at the
// end: Agreement, a stable accepted FOLLOWERS choice, and
// no-leader-suspicion (no current suspect-graph edge between the leader
// and a quorum member at any correct process).
func TestRandomizedFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized integration test")
	}
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomFollowerScenario(t, seed)
		})
	}
}

func runRandomFollowerScenario(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	f := 1 + rng.Intn(2)
	n := 3*f + 1 + rng.Intn(2) // keeps n > 3f
	cfg := ids.MustConfig(n, f)

	faulty := ids.NewProcSet()
	for faulty.Len() < f {
		faulty.Add(ids.ProcessID(rng.Intn(n) + 1))
	}
	var filters []sim.Filter
	crashed := ids.NewProcSet()
	classes := make(map[ids.ProcessID]string, f)
	for _, p := range faulty.Sorted() {
		one := ids.NewProcSet(p)
		switch rng.Intn(3) {
		case 0:
			crashed.Add(p)
			classes[p] = "crash"
		case 1:
			filters = append(filters, &adversary.BurstOmission{
				Faulty: one, On: 1200 * time.Millisecond, Off: 1800 * time.Millisecond,
			})
			classes[p] = "burst-omission"
		case 2:
			filters = append(filters, adversary.NewJitterDelay(one, 120*time.Millisecond, seed+int64(p)))
			classes[p] = "jitter"
		}
	}
	t.Logf("n=%d f=%d faulty=%v", n, f, classes)

	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 25 * time.Millisecond
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	correct := make(map[ids.ProcessID]*follower.Node, n)
	for _, p := range cfg.All() {
		if crashed.Contains(p) {
			nodes[p] = silent{}
			continue
		}
		node := follower.NewNode(opts)
		nodes[p] = node
		if !faulty.Contains(p) {
			correct[p] = node
		}
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{
		Seed:    seed,
		Latency: sim.UniformLatency(time.Millisecond, 8*time.Millisecond),
		Filter:  adversary.Chain(filters...),
	})

	net.Run(12 * time.Second)
	issued := make(map[ids.ProcessID]int, len(correct))
	for p, node := range correct {
		issued[p] = node.Selector.QuorumsIssued()
	}
	net.Run(net.Now() + 6*time.Second)

	// Termination.
	for p, node := range correct {
		if node.Selector.QuorumsIssued() != issued[p] {
			t.Errorf("%s issued further quorums in the quiet window (%d -> %d)",
				p, issued[p], node.Selector.QuorumsIssued())
		}
	}

	// Agreement on quorum and leader.
	var ref *follower.Node
	for _, node := range correct {
		ref = node
		break
	}
	want := ref.CurrentQuorum()
	for p, node := range correct {
		if !node.CurrentQuorum().Equal(want) {
			t.Errorf("Agreement violated: %s has %s, want %s", p, node.CurrentQuorum(), want)
		}
		if !node.Selector.Stable() {
			t.Errorf("%s not stable at the end", p)
		}
	}

	// No-leader-suspicion: no current edge between the leader and any
	// quorum member at any correct process.
	leader := want.EffectiveLeader()
	for p, node := range correct {
		g := node.Store.SuspectGraph()
		for _, m := range want.Members {
			if m != leader && g.HasEdge(leader, m) {
				t.Errorf("no-leader-suspicion violated at %s: edge (%s,%s) with quorum %s",
					p, leader, m, want)
			}
		}
	}

	// A crashed default process must not be the leader.
	if crashed.Contains(leader) {
		t.Errorf("final leader %s is crashed", leader)
	}
}

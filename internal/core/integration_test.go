package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"quorumselect/internal/adversary"
	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

// TestRandomizedFaultInjection drives full quorum-selection stacks
// through randomized fault scenarios (crash, burst omission, jitter,
// unbounded growing delay — each confined to at most f processes) and
// checks the paper's §IV-A properties at the end of every run:
//
//   - Agreement: all correct processes hold the same quorum.
//   - No suspicion: that quorum is an independent set of every correct
//     process's current suspect graph.
//   - Termination: after the convergence phase, a long trailing window
//     sees no further quorum changes, and the total number of changes
//     is far below the trivial bound.
func TestRandomizedFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized integration test")
	}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomScenario(t, seed)
		})
	}
}

func runRandomScenario(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	f := 1 + rng.Intn(2)       // 1..2
	n := 3*f + 1 + rng.Intn(3) // 3f+1 .. 3f+3
	cfg := ids.MustConfig(n, f)

	// Faulty set: random f distinct processes.
	faulty := ids.NewProcSet()
	for faulty.Len() < f {
		faulty.Add(ids.ProcessID(rng.Intn(n) + 1))
	}

	// Assign each faulty process a failure class.
	var filters []sim.Filter
	crashed := ids.NewProcSet()
	classes := make(map[ids.ProcessID]string, f)
	for _, p := range faulty.Members() {
		one := ids.NewProcSet(p)
		switch mode := rng.Intn(4); mode {
		case 0:
			crashed.Add(p)
			classes[p] = "crash"
		case 1:
			filters = append(filters, &adversary.BurstOmission{
				Faulty: one, On: 1500 * time.Millisecond, Off: 1500 * time.Millisecond,
			})
			classes[p] = "burst-omission"
		case 2:
			filters = append(filters, adversary.NewJitterDelay(one, 150*time.Millisecond, seed+int64(p)))
			classes[p] = "jitter"
		case 3:
			filters = append(filters, &adversary.SteppedDelay{
				Faulty: one, Step: 1500 * time.Millisecond, Every: 3 * time.Second,
			})
			classes[p] = "growing-delay"
		}
	}
	t.Logf("n=%d f=%d faulty=%v", n, f, classes)

	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 25 * time.Millisecond
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	correct := make(map[ids.ProcessID]*core.Node, n)
	for _, p := range cfg.All() {
		if crashed.Contains(p) {
			nodes[p] = silent{}
			continue
		}
		node := core.NewNode(opts)
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

	// Convergence phase.
	net.Run(12 * time.Second)

	issued := make(map[ids.ProcessID]int, len(correct))
	for p, node := range correct {
		issued[p] = node.Selector.QuorumsIssued()
	}

	// Trailing window: Termination means no further changes.
	net.Run(net.Now() + 6*time.Second)
	for p, node := range correct {
		if node.Selector.QuorumsIssued() != issued[p] {
			t.Errorf("%s issued further quorums in the quiet window (%d -> %d)",
				p, issued[p], node.Selector.QuorumsIssued())
		}
		// A generous sanity bound on total churn.
		if node.Selector.QuorumsIssued() > n*n {
			t.Errorf("%s: %d quorum changes exceeds n²", p, node.Selector.QuorumsIssued())
		}
	}

	// Agreement across correct processes.
	var ref *core.Node
	for _, node := range correct {
		ref = node
		break
	}
	want := ref.CurrentQuorum()
	for p, node := range correct {
		if !node.CurrentQuorum().Equal(want) {
			t.Errorf("Agreement violated: %s has %s, want %s", p, node.CurrentQuorum(), want)
		}
	}

	// No suspicion: the quorum is independent in every correct
	// process's suspect graph.
	for p, node := range correct {
		g := node.Store.SuspectGraph()
		if !g.IsIndependentSet(want.Members) {
			t.Errorf("No-suspicion violated at %s: %s not independent in %s", p, want, g)
		}
	}

	// A permanently crashed process must have been excluded.
	for _, p := range crashed.Members() {
		if want.Contains(p) {
			t.Errorf("final quorum %s contains crashed %s", want, p)
		}
	}
}

// TestPartitionHealConvergence: during a partition the two sides
// suspect each other and select divergent quorums; once the partition
// heals, the eventually-consistent suspicion store reconciles and all
// correct processes re-agree (the paper's Agreement property is
// *eventual* — exactly this scenario).
func TestPartitionHealConvergence(t *testing.T) {
	// n=7, f=2: {p5, p7} are cut off — exactly f processes, so a valid
	// quorum still exists on the majority side (partitioning more than
	// f would violate the fault assumption and no quorum of n−f could
	// be selected at all).
	cfg := ids.MustConfig(7, 2)
	part := &adversary.Partition{Group: ids.NewProcSet(1, 2, 3, 4, 6), Heal: 3 * time.Second}
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 25 * time.Millisecond
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	coreNodes := make(map[ids.ProcessID]*core.Node, cfg.N)
	for _, p := range cfg.All() {
		node := core.NewNode(opts)
		coreNodes[p] = node
		nodes[p] = node
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Filter:  part,
	})

	// During the partition the majority side {1,2,3,4,6} suspects the
	// minority {5,7} and selects a quorum without it.
	net.Run(2 * time.Second)
	qMaj := coreNodes[1].CurrentQuorum()
	for _, p := range []ids.ProcessID{5, 7} {
		if qMaj.Contains(p) {
			t.Errorf("majority-side quorum %s still contains partitioned %s", qMaj, p)
		}
	}

	// After healing, everyone reconciles: same quorum everywhere, no
	// current suspicions inside it.
	net.Run(10 * time.Second)
	want := coreNodes[1].CurrentQuorum()
	for p, n := range coreNodes {
		if !n.CurrentQuorum().Equal(want) {
			t.Errorf("after heal %s has %s, p1 has %s", p, n.CurrentQuorum(), want)
		}
		if !n.Store.SuspectGraph().IsIndependentSet(want.Members) {
			t.Errorf("after heal quorum %s not independent at %s", want, p)
		}
	}
	// And the system stays quiet (Termination).
	issued := coreNodes[2].Selector.QuorumsIssued()
	net.Run(net.Now() + 5*time.Second)
	if coreNodes[2].Selector.QuorumsIssued() != issued {
		t.Error("quorums kept changing after the partition healed")
	}
}

// TestEquivocatingUpdaterConverges runs a protocol-level Byzantine node
// that signs *different* suspicion rows to different peers (real
// message-level equivocation, not injected store writes). Per §VI-C,
// the max-merge store still converges — equivocation only makes the
// merged state grow faster — and the equivocator's claims get the
// quorum changed at most a bounded number of times.
func TestEquivocatingUpdaterConverges(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	coreNodes := make(map[ids.ProcessID]*core.Node, cfg.N)
	for _, p := range cfg.All() {
		if p == 4 {
			nodes[p] = &equivocatingUpdater{}
			continue
		}
		node := core.NewNode(opts)
		coreNodes[p] = node
		nodes[p] = node
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	net.Run(3 * time.Second)

	// All correct processes hold the pointwise max of the equivocated
	// rows and agree on one quorum.
	for p, n := range coreNodes {
		row := n.Store.Row(4)
		if row[0] != 2 || row[1] != 2 {
			t.Errorf("%s: row4 = %v, want pointwise max [2 2 0 0]", p, row)
		}
	}
	want := coreNodes[1].CurrentQuorum()
	for p, n := range coreNodes {
		if !n.CurrentQuorum().Equal(want) {
			t.Errorf("%s has %s, want %s", p, n.CurrentQuorum(), want)
		}
	}
}

// equivocatingUpdater is a Byzantine process that sends conflicting
// UPDATE rows to different peers (claiming it suspects p1 to some, p2
// to others, with different epoch stamps).
type equivocatingUpdater struct{ env runtime.Env }

func (e *equivocatingUpdater) Init(env runtime.Env) {
	e.env = env
	env.After(time.Millisecond, func() {
		env.Send(1, &wire.Update{Owner: 4, Row: []uint64{2, 0, 0, 0}, Sig: []byte{0}})
		env.Send(2, &wire.Update{Owner: 4, Row: []uint64{0, 2, 0, 0}, Sig: []byte{0}})
		env.Send(3, &wire.Update{Owner: 4, Row: []uint64{1, 1, 0, 0}, Sig: []byte{0}})
	})
}

func (e *equivocatingUpdater) Receive(ids.ProcessID, wire.Message) {}

// TestLemma2Randomized checks Lemma 2 across random runs: within one
// epoch, every quorum change at a correct process is preceded by a new
// suspect-graph edge connecting two members of its previous quorum.
// (Across an epoch advance the suspect graph is rebuilt from scratch,
// so the lemma — whose proof is about adding edges to a fixed G — does
// not constrain those changes.)
func TestLemma2Randomized(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, f := 7, 2
		fx := newFixture(t, n, f, quietOpts(), sim.Options{Seed: seed}, ids.NewProcSet())
		observer := fx.nodes[7]

		prev := observer.CurrentQuorum()
		prevEpoch := observer.Selector.Epoch()
		sameEpochChanges := 0

		for step := 0; step < 12; step++ {
			a := ids.ProcessID(rng.Intn(n) + 1)
			b := ids.ProcessID(rng.Intn(n) + 1)
			if a == b {
				continue
			}
			fx.nodes[a].Selector.OnSuspected(ids.NewProcSet(b))
			fx.net.Run(fx.net.Now() + time.Second)
			cur := observer.CurrentQuorum()
			curEpoch := observer.Selector.Epoch()
			if !cur.Equal(prev) && curEpoch == prevEpoch {
				sameEpochChanges++
				g := observer.Store.SuspectGraph()
				found := false
				for _, e := range g.Edges() {
					if prev.Contains(e.U) && prev.Contains(e.V) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("seed %d: same-epoch quorum change %s -> %s with no edge inside the old quorum (G=%s)",
						seed, prev, cur, g)
				}
			}
			prev, prevEpoch = cur, curEpoch
		}
		if sameEpochChanges == 0 {
			t.Logf("seed %d: no same-epoch changes observed", seed)
		}
	}
}

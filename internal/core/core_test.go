package core_test

import (
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

// silent is a crashed process: it never sends and ignores everything.
type silent struct{}

func (silent) Init(runtime.Env)                    {}
func (silent) Receive(ids.ProcessID, wire.Message) {}

type fixture struct {
	net   *sim.Network
	nodes map[ids.ProcessID]*core.Node
}

// newFixture builds a network of composed core.Nodes; crashed processes
// are replaced by silent stubs.
func newFixture(t *testing.T, n, f int, opts core.NodeOptions, simOpts sim.Options, crashed ids.ProcSet) *fixture {
	t.Helper()
	cfg := ids.MustConfig(n, f)
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	coreNodes := make(map[ids.ProcessID]*core.Node, n)
	for _, p := range cfg.All() {
		if crashed.Contains(p) {
			nodes[p] = silent{}
			continue
		}
		node := core.NewNode(opts)
		coreNodes[p] = node
		nodes[p] = node
	}
	return &fixture{net: sim.NewNetwork(cfg, nodes, simOpts), nodes: coreNodes}
}

func quietOpts() core.NodeOptions {
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0 // suspicions injected manually
	return opts
}

func TestInitialQuorumIsDefault(t *testing.T) {
	fx := newFixture(t, 4, 1, quietOpts(), sim.Options{}, ids.NewProcSet())
	fx.net.Run(200 * time.Millisecond)
	for p, n := range fx.nodes {
		want := ids.NewQuorum([]ids.ProcessID{1, 2, 3})
		if !n.CurrentQuorum().Equal(want) {
			t.Errorf("%s: quorum = %s, want default %s", p, n.CurrentQuorum(), want)
		}
		if len(n.Quorums()) != 0 {
			t.Errorf("%s issued %d quorums without any suspicion", p, len(n.Quorums()))
		}
	}
}

func TestSingleSuspicionChangesQuorum(t *testing.T) {
	fx := newFixture(t, 4, 1, quietOpts(), sim.Options{}, ids.NewProcSet())
	// p1's failure detector suspects p2 (e.g. an omitted COMMIT).
	fx.nodes[1].Selector.OnSuspected(ids.NewProcSet(2))
	fx.net.Run(time.Second)
	want := ids.NewQuorum([]ids.ProcessID{1, 3, 4})
	for p, n := range fx.nodes {
		if !n.CurrentQuorum().Equal(want) {
			t.Errorf("%s: quorum = %s, want %s", p, n.CurrentQuorum(), want)
		}
	}
}

func TestAgreementAndNoSuspicion(t *testing.T) {
	// Several processes suspect several others concurrently; all
	// correct processes must converge to the same quorum, and that
	// quorum must be an independent set of the final suspect graph.
	fx := newFixture(t, 7, 2, quietOpts(), sim.Options{
		Seed:    3,
		Latency: sim.UniformLatency(time.Millisecond, 25*time.Millisecond),
	}, ids.NewProcSet())
	fx.nodes[1].Selector.OnSuspected(ids.NewProcSet(6))
	fx.nodes[3].Selector.OnSuspected(ids.NewProcSet(7))
	fx.nodes[5].Selector.OnSuspected(ids.NewProcSet(6, 7))
	fx.net.Run(3 * time.Second)

	first := fx.nodes[1].CurrentQuorum()
	for p, n := range fx.nodes {
		if !n.CurrentQuorum().Equal(first) {
			t.Errorf("Agreement violated: %s has %s, p1 has %s", p, n.CurrentQuorum(), first)
		}
		g := n.Store.SuspectGraph()
		if !g.IsIndependentSet(n.CurrentQuorum().Members) {
			t.Errorf("No-suspicion violated at %s: quorum %s not independent in %s",
				p, n.CurrentQuorum(), g)
		}
	}
	// The suspected processes p6, p7 must be excluded.
	if first.Contains(6) || first.Contains(7) {
		t.Errorf("final quorum %s contains suspected processes", first)
	}
}

func TestCrashedProcessExcluded(t *testing.T) {
	// With heartbeats on, a crashed p4 is suspected by everyone and
	// excluded; the quorum converges to {p1,p2,p3} and stays there
	// (Termination).
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 20 * time.Millisecond
	fx := newFixture(t, 4, 1, opts, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)},
		ids.NewProcSet(4))
	fx.net.Run(2 * time.Second)
	want := ids.NewQuorum([]ids.ProcessID{1, 2, 3})
	var issuedBefore []int
	for p, n := range fx.nodes {
		if !n.CurrentQuorum().Equal(want) {
			t.Errorf("%s: quorum = %s, want %s", p, n.CurrentQuorum(), want)
		}
		issuedBefore = append(issuedBefore, n.Selector.QuorumsIssued())
		_ = p
	}
	// Run much longer: no further quorum changes (Termination).
	fx.net.Run(fx.net.Now() + 3*time.Second)
	i := 0
	for p, n := range fx.nodes {
		if n.Selector.QuorumsIssued() != issuedBefore[i] {
			t.Errorf("%s kept changing quorums after convergence", p)
		}
		i++
	}
}

func TestEpochAdvanceOnInconsistentSuspicions(t *testing.T) {
	// Edges (1,2) and (3,4) on n=4, q=3 leave no independent set of
	// size 3: processes must advance the epoch. Suspicions are injected
	// once (and the injecting detectors then report empty sets), so
	// after the epoch advance the stale edges vanish and the default
	// quorum becomes available again.
	fx := newFixture(t, 4, 1, quietOpts(), sim.Options{}, ids.NewProcSet())
	fx.nodes[1].Selector.OnSuspected(ids.NewProcSet(2))
	fx.net.Run(300 * time.Millisecond)
	// Everyone now excludes p2.
	fx.nodes[1].Selector.OnSuspected(ids.NewProcSet()) // p1's suspicion canceled
	fx.nodes[3].Selector.OnSuspected(ids.NewProcSet(4))
	fx.net.Run(fx.net.Now() + time.Second)

	for p, n := range fx.nodes {
		if n.Selector.Epoch() < 2 {
			t.Errorf("%s: epoch = %d, want ≥ 2 after inconsistent suspicions", p, n.Selector.Epoch())
		}
	}
	// In the new epoch only p3's re-stamped suspicion of p4 survives:
	// the quorum must be {1,2,3} everywhere.
	want := ids.NewQuorum([]ids.ProcessID{1, 2, 3})
	for p, n := range fx.nodes {
		if !n.CurrentQuorum().Equal(want) {
			t.Errorf("%s: quorum = %s, want %s (epoch %d)", p, n.CurrentQuorum(), want, n.Selector.Epoch())
		}
	}
}

func TestLemma2NewQuorumOnlyAfterEdgeInsideQuorum(t *testing.T) {
	// Lemma 2: a process issues a new quorum only after an edge
	// appears between two members of its current quorum. Suspicions
	// against non-members must not change the quorum.
	fx := newFixture(t, 5, 2, quietOpts(), sim.Options{}, ids.NewProcSet())
	fx.nodes[1].Selector.OnSuspected(ids.NewProcSet(4))
	fx.net.Run(time.Second)
	q1 := fx.nodes[2].CurrentQuorum() // {1,2,3}: p4 was never in it
	if !q1.Equal(ids.NewQuorum([]ids.ProcessID{1, 2, 3})) {
		t.Fatalf("quorum = %s", q1)
	}
	issued := fx.nodes[2].Selector.QuorumsIssued()
	if issued != 0 {
		t.Errorf("suspicion outside the quorum issued a quorum change (%d)", issued)
	}
	// Now an edge inside the quorum: p2 suspects p3.
	fx.nodes[2].Selector.OnSuspected(ids.NewProcSet(3))
	fx.net.Run(fx.net.Now() + time.Second)
	if fx.nodes[2].Selector.QuorumsIssued() == issued {
		t.Error("edge inside the quorum did not trigger a change")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []string {
		fx := newFixture(t, 7, 2, quietOpts(), sim.Options{
			Seed:    11,
			Latency: sim.UniformLatency(time.Millisecond, 30*time.Millisecond),
		}, ids.NewProcSet())
		fx.nodes[2].Selector.OnSuspected(ids.NewProcSet(1, 5))
		fx.nodes[6].Selector.OnSuspected(ids.NewProcSet(2))
		fx.net.Run(2 * time.Second)
		var out []string
		for _, p := range fx.net.Config().All() {
			for _, q := range fx.nodes[p].Quorums() {
				out = append(out, p.String()+":"+q.String())
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("quorum logs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSelectorBoundsAccounting(t *testing.T) {
	fx := newFixture(t, 4, 1, quietOpts(), sim.Options{}, ids.NewProcSet())
	fx.nodes[1].Selector.OnSuspected(ids.NewProcSet(2))
	fx.net.Run(time.Second)
	n := fx.nodes[3]
	if n.Selector.QuorumsIssued() != 1 {
		t.Errorf("QuorumsIssued = %d, want 1", n.Selector.QuorumsIssued())
	}
	if n.Selector.QuorumsIssuedInEpoch(1) != 1 {
		t.Errorf("QuorumsIssuedInEpoch(1) = %d, want 1", n.Selector.QuorumsIssuedInEpoch(1))
	}
	if n.Selector.QuorumsIssuedInEpoch(2) != 0 {
		t.Error("phantom quorums in epoch 2")
	}
}

func TestFZeroWithSuspicionKeepsQuorum(t *testing.T) {
	// f = 0 means q = n: any persistent suspicion precludes every
	// quorum (an assumption violation). The selector must not spin or
	// panic — it counts the preclusion and keeps the last quorum.
	fx := newFixture(t, 3, 0, quietOpts(), sim.Options{}, ids.NewProcSet())
	fx.nodes[1].Selector.OnSuspected(ids.NewProcSet(2))
	fx.net.Run(time.Second)
	want := ids.NewQuorum([]ids.ProcessID{1, 2, 3})
	for p, n := range fx.nodes {
		if !n.CurrentQuorum().Equal(want) {
			t.Errorf("%s: quorum = %s, want the retained default %s", p, n.CurrentQuorum(), want)
		}
	}
	if got := fx.net.Metrics().Counter("core.quorum.precluded"); got == 0 {
		t.Error("core.quorum.precluded not counted")
	}
}

func TestOwnSuspicionsPrecludeQuorum(t *testing.T) {
	// f=1, n=4, q=3: a process suspecting two others (more than f)
	// leaves... {others} minus suspects = 1 node; IS of size 3 exists?
	// Edges (1,2),(1,3): {2,3,4} is independent — still fine. Suspect
	// three others: edges (1,2),(1,3),(1,4): IS of size 3 without p1 is
	// {2,3,4} — still independent! A star never blocks an IS that
	// avoids its center (q ≤ n−1). So this scenario keeps working:
	// the quorum simply excludes the suspicious process p1.
	fx := newFixture(t, 4, 1, quietOpts(), sim.Options{}, ids.NewProcSet())
	fx.nodes[1].Selector.OnSuspected(ids.NewProcSet(2, 3, 4))
	fx.net.Run(time.Second)
	want := ids.NewQuorum([]ids.ProcessID{2, 3, 4})
	for p, n := range fx.nodes {
		if !n.CurrentQuorum().Equal(want) {
			t.Errorf("%s: quorum = %s, want %s", p, n.CurrentQuorum(), want)
		}
	}
}

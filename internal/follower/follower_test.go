package follower_test

import (
	"slices"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/follower"
	"quorumselect/internal/graph"
	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

type silent struct{}

func (silent) Init(runtime.Env)                    {}
func (silent) Receive(ids.ProcessID, wire.Message) {}

type fixture struct {
	net   *sim.Network
	nodes map[ids.ProcessID]*follower.Node
}

func newFixture(t *testing.T, n, f int, opts core.NodeOptions, simOpts sim.Options, crashed ids.ProcSet) *fixture {
	t.Helper()
	cfg := ids.MustConfig(n, f)
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	fNodes := make(map[ids.ProcessID]*follower.Node, n)
	for _, p := range cfg.All() {
		if crashed.Contains(p) {
			nodes[p] = silent{}
			continue
		}
		node := follower.NewNode(opts)
		fNodes[p] = node
		nodes[p] = node
	}
	return &fixture{net: sim.NewNetwork(cfg, nodes, simOpts), nodes: fNodes}
}

func quietOpts() core.NodeOptions {
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	return opts
}

func TestRequiresLeaderCentricConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("n = 3f did not panic")
		}
	}()
	// n=6, f=2 violates n > 3f.
	fx := newFixture(t, 6, 2, quietOpts(), sim.Options{}, ids.NewProcSet())
	_ = fx
}

func TestInitialState(t *testing.T) {
	fx := newFixture(t, 7, 2, quietOpts(), sim.Options{}, ids.NewProcSet())
	fx.net.Run(100 * time.Millisecond)
	for p, n := range fx.nodes {
		if n.Selector.Leader() != 1 {
			t.Errorf("%s: leader = %v, want p1", p, n.Selector.Leader())
		}
		want := ids.NewLeaderQuorum(1, []ids.ProcessID{1, 2, 3, 4, 5})
		if !n.CurrentQuorum().Equal(want) {
			t.Errorf("%s: quorum = %s, want %s", p, n.CurrentQuorum(), want)
		}
		if len(n.Quorums()) != 0 {
			t.Errorf("%s issued quorums without suspicions", p)
		}
	}
}

func TestFollowerSuspicionDoesNotChangeLeader(t *testing.T) {
	// A suspicion between two followers (p3 suspects p4) must neither
	// change the leader nor trigger a new quorum — the relaxation that
	// buys the O(f) bound.
	fx := newFixture(t, 7, 2, quietOpts(), sim.Options{}, ids.NewProcSet())
	fx.nodes[3].Selector.OnSuspected(ids.NewProcSet(4))
	fx.net.Run(time.Second)
	for p, n := range fx.nodes {
		if n.Selector.Leader() != 1 {
			t.Errorf("%s: leader changed to %v on follower-follower suspicion", p, n.Selector.Leader())
		}
		if n.Selector.QuorumsIssued() != 0 {
			t.Errorf("%s issued a quorum on follower-follower suspicion", p)
		}
	}
}

func TestLeaderSuspicionMovesLeader(t *testing.T) {
	// p3 suspects the leader p1: the edge (p1,p3) makes p2 the maximal
	// line subgraph's leader. p2 broadcasts FOLLOWERS; everyone
	// converges to the same quorum with leader p2. Note the quorum may
	// legitimately keep both p1 and p3 — their mutual suspicion is a
	// follower-follower edge under the new leader.
	fx := newFixture(t, 7, 2, quietOpts(), sim.Options{}, ids.NewProcSet())
	fx.nodes[3].Selector.OnSuspected(ids.NewProcSet(1))
	fx.net.Run(time.Second)
	want := ids.NewLeaderQuorum(2, []ids.ProcessID{1, 2, 3, 4, 5})
	for p, n := range fx.nodes {
		if n.Selector.Leader() != 2 {
			t.Errorf("%s: leader = %v, want p2", p, n.Selector.Leader())
		}
		if !n.CurrentQuorum().Equal(want) {
			t.Errorf("%s: quorum = %s, want %s", p, n.CurrentQuorum(), want)
		}
		if !n.Selector.Stable() {
			t.Errorf("%s not stable after FOLLOWERS", p)
		}
		if n.Detector.IsDetected(2) {
			t.Errorf("%s wrongly detected the correct leader p2", p)
		}
	}
}

func TestCrashedDefaultLeaderReplaced(t *testing.T) {
	// p1 is crashed; heartbeat expectations suspect it everywhere, the
	// leader moves to p2 and the selected quorum excludes p1.
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 20 * time.Millisecond
	fx := newFixture(t, 7, 2, opts, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)},
		ids.NewProcSet(1))
	fx.net.Run(3 * time.Second)
	for p, n := range fx.nodes {
		q := n.CurrentQuorum()
		if q.Leader == 1 {
			t.Errorf("%s still has crashed p1 as leader", p)
		}
		if q.Contains(1) {
			t.Errorf("%s: quorum %s contains crashed p1", p, q)
		}
		if !n.Selector.Stable() {
			t.Errorf("%s not stable", p)
		}
	}
	// Agreement.
	first := fx.nodes[2].CurrentQuorum()
	for p, n := range fx.nodes {
		if !n.CurrentQuorum().Equal(first) {
			t.Errorf("Agreement violated: %s has %s, p2 has %s", p, n.CurrentQuorum(), first)
		}
	}
}

// TestQuorumChangeEventsMatchTrajectory runs the default crash scenario
// of `qsim -selector follower` and checks that each node's QUORUM_CHANGE
// events on the bus are exactly its issued-quorum trajectory, as core's
// selector publishes them.
func TestQuorumChangeEventsMatchTrajectory(t *testing.T) {
	fx := newFixture(t, 7, 2, core.DefaultNodeOptions(),
		sim.Options{Seed: 1, Latency: sim.ConstantLatency(5 * time.Millisecond)}, ids.NewProcSet(1))
	fx.net.Run(5 * time.Second)
	events := fx.net.Events().OfType(obs.TypeQuorumChange)
	for p, n := range fx.nodes {
		var got []string
		for _, e := range events {
			if e.Node != p {
				continue
			}
			if e.Epoch == 0 {
				t.Errorf("%s: QUORUM_CHANGE without an epoch: %s", p, e)
			}
			got = append(got, e.Detail)
		}
		var want []string
		for _, q := range n.Quorums() {
			want = append(want, q.String())
		}
		if len(want) == 0 {
			t.Errorf("%s issued no quorum after p1 crashed", p)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: QUORUM_CHANGE details %v, trajectory %v", p, got, want)
		}
	}
}

func TestEquivocatingLeaderDetected(t *testing.T) {
	fx := newFixture(t, 7, 2, quietOpts(), sim.Options{}, ids.NewProcSet())
	// Move the leader to p2.
	fx.nodes[3].Selector.OnSuspected(ids.NewProcSet(1))
	fx.net.Run(time.Second)
	if fx.nodes[4].Selector.Leader() != 2 {
		t.Fatalf("setup failed: leader = %v", fx.nodes[4].Selector.Leader())
	}
	// The leader now equivocates: a second, different (but well-formed)
	// FOLLOWERS for the same epoch.
	second := &wire.Followers{
		Leader:    2,
		Epoch:     fx.nodes[4].Selector.Epoch(),
		Followers: []ids.ProcessID{4, 5, 6, 7},
		Line:      []wire.Edge{{U: 1, V: 3}},
		Sig:       []byte{0},
	}
	for _, p := range fx.net.Config().All() {
		if p != 2 {
			fx.net.Env(2).Send(p, second)
		}
	}
	fx.net.Run(fx.net.Now() + time.Second)
	for p, n := range fx.nodes {
		if p == 2 {
			continue
		}
		if !n.Detector.IsDetected(2) {
			t.Errorf("%s did not detect the equivocating leader", p)
		}
	}
}

func TestMalformedFollowersDetected(t *testing.T) {
	fx := newFixture(t, 7, 2, quietOpts(), sim.Options{}, ids.NewProcSet())
	// Move leader to p2 so messages from p2 pass the line-28 guard.
	fx.nodes[3].Selector.OnSuspected(ids.NewProcSet(1))
	fx.net.Run(time.Second)
	n4 := fx.nodes[4]
	epoch := n4.Selector.Epoch()

	tests := []struct {
		name string
		msg  *wire.Followers
	}{
		{
			name: "wrong follower count",
			msg: &wire.Followers{Leader: 2, Epoch: epoch,
				Followers: []ids.ProcessID{4, 5}, Line: []wire.Edge{{U: 1, V: 3}}},
		},
		{
			name: "leader among followers",
			msg: &wire.Followers{Leader: 2, Epoch: epoch,
				Followers: []ids.ProcessID{2, 4, 5, 6}, Line: []wire.Edge{{U: 1, V: 3}}},
		},
		{
			name: "duplicate followers",
			msg: &wire.Followers{Leader: 2, Epoch: epoch,
				Followers: []ids.ProcessID{4, 4, 5, 6}, Line: []wire.Edge{{U: 1, V: 3}}},
		},
		{
			name: "line not a subgraph of G",
			msg: &wire.Followers{Leader: 2, Epoch: epoch,
				Followers: []ids.ProcessID{4, 5, 6, 7}, Line: []wire.Edge{{U: 5, V: 6}}},
		},
		{
			name: "line does not designate sender",
			msg: &wire.Followers{Leader: 2, Epoch: epoch,
				Followers: []ids.ProcessID{4, 5, 6, 7}, Line: nil}, // empty line designates p1
		},
		{
			name: "line has a cycle",
			msg: &wire.Followers{Leader: 2, Epoch: epoch,
				Followers: []ids.ProcessID{4, 5, 6, 7},
				Line:      []wire.Edge{{U: 1, V: 3}, {U: 3, V: 5}, {U: 5, V: 1}}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// Fresh fixture per case to avoid cross-detections.
			fx := newFixture(t, 7, 2, quietOpts(), sim.Options{}, ids.NewProcSet())
			fx.nodes[3].Selector.OnSuspected(ids.NewProcSet(1))
			fx.net.Run(time.Second)
			tt.msg.Sig = []byte{0}
			fx.net.Env(2).Send(4, tt.msg)
			fx.net.Run(fx.net.Now() + time.Second)
			if !fx.nodes[4].Detector.IsDetected(2) {
				t.Error("malformed FOLLOWERS not detected")
			}
		})
	}
}

func TestStaleEpochFollowersIgnored(t *testing.T) {
	fx := newFixture(t, 7, 2, quietOpts(), sim.Options{}, ids.NewProcSet())
	fx.nodes[3].Selector.OnSuspected(ids.NewProcSet(1))
	fx.net.Run(time.Second)
	stale := &wire.Followers{
		Leader:    2,
		Epoch:     99, // wrong epoch
		Followers: []ids.ProcessID{4, 5, 6, 7},
		Line:      []wire.Edge{{U: 1, V: 3}},
		Sig:       []byte{0},
	}
	fx.net.Env(2).Send(4, stale)
	fx.net.Run(fx.net.Now() + time.Second)
	if fx.nodes[4].Detector.IsDetected(2) {
		t.Error("stale-epoch FOLLOWERS caused a detection")
	}
	// And the quorum did not change.
	want := ids.NewLeaderQuorum(2, []ids.ProcessID{1, 2, 3, 4, 5})
	if !fx.nodes[4].CurrentQuorum().Equal(want) {
		t.Errorf("quorum = %s, want %s", fx.nodes[4].CurrentQuorum(), want)
	}
}

func TestSelectFollowersPrefersClean(t *testing.T) {
	// Leader p2 with line (1,3); p4 has a suspicion edge to the leader
	// in G: it must be sorted after the clean candidates.
	g := graph.New(7)
	g.AddEdge(1, 3)
	g.AddEdge(2, 4)
	l, err := graph.LineSubgraphFromEdges(7, []graph.Edge{{U: 1, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if l.Leader() != 2 {
		t.Fatalf("line leader = %v", l.Leader())
	}
	fw, ok := follower.SelectFollowers(l, g, 4)
	if !ok {
		t.Fatal("SelectFollowers failed")
	}
	for _, p := range fw {
		if p == 4 {
			t.Errorf("tainted p4 selected although clean candidates sufficed: %v", fw)
		}
		if p == 2 {
			t.Errorf("leader selected as follower: %v", fw)
		}
	}
}

func TestSelectFollowersShortfall(t *testing.T) {
	l, err := graph.LineSubgraphFromEdges(4, []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Possible followers: 1, 3, 4 minus leader 4 → {1, 3}; p2 is a P3
	// middle. Asking for 3 must fail.
	if _, ok := follower.SelectFollowers(l, graph.New(4), 3); ok {
		t.Error("SelectFollowers returned ok with insufficient candidates")
	}
	if fw, ok := follower.SelectFollowers(l, graph.New(4), 2); !ok || len(fw) != 2 {
		t.Errorf("SelectFollowers = %v, %v", fw, ok)
	}
}

func TestEpochAdvanceInstallsDefaultQuorum(t *testing.T) {
	// Build a graph with no independent set of size q = 5 on n = 7:
	// suspicions must pair up 3 disjoint edges... with q=5 and n=7 a
	// vertex cover of size 2 must hit all edges; three disjoint edges
	// need 3 — so (1,2),(3,4),(5,6) block any IS of size 5 and force an
	// epoch advance everywhere.
	fx := newFixture(t, 7, 2, quietOpts(), sim.Options{}, ids.NewProcSet())
	fx.nodes[1].Selector.OnSuspected(ids.NewProcSet(2))
	fx.net.Run(500 * time.Millisecond)
	fx.nodes[1].Selector.OnSuspected(ids.NewProcSet()) // cancel again
	fx.nodes[3].Selector.OnSuspected(ids.NewProcSet(4))
	fx.net.Run(fx.net.Now() + 500*time.Millisecond)
	fx.nodes[3].Selector.OnSuspected(ids.NewProcSet())
	fx.nodes[5].Selector.OnSuspected(ids.NewProcSet(6))
	fx.net.Run(fx.net.Now() + time.Second)
	for p, n := range fx.nodes {
		if n.Selector.Epoch() < 2 {
			t.Errorf("%s: epoch = %d, want ≥ 2", p, n.Selector.Epoch())
		}
	}
	// After the advance only p5's re-stamped suspicion of p6 survives;
	// p5→p6 is a follower-follower edge, so the default leader p1 and
	// default quorum stand.
	for p, n := range fx.nodes {
		if n.Selector.Leader() != 1 {
			t.Errorf("%s: leader = %v, want default p1", p, n.Selector.Leader())
		}
		want := ids.NewLeaderQuorum(1, []ids.ProcessID{1, 2, 3, 4, 5})
		if !n.CurrentQuorum().Equal(want) {
			t.Errorf("%s: quorum = %s, want default %s", p, n.CurrentQuorum(), want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		fx := newFixture(t, 7, 2, quietOpts(), sim.Options{
			Seed:    5,
			Latency: sim.UniformLatency(time.Millisecond, 20*time.Millisecond),
		}, ids.NewProcSet())
		fx.nodes[3].Selector.OnSuspected(ids.NewProcSet(1))
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
		t.Fatalf("runs diverge: %d vs %d quorum events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

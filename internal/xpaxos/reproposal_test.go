package xpaxos_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// reproposalCluster is an n=4, f=1 simulated cluster with heartbeats
// on, a key-value machine per replica and durable storage on every
// replica, so any of them can crash and come back from its WAL.
type reproposalCluster struct {
	net      *sim.Network
	replicas map[ids.ProcessID]*xpaxos.Replica
	machines map[ids.ProcessID]*xpaxos.KVMachine
	backends map[ids.ProcessID]*storage.MemBackend
	wrap     func(ids.ProcessID, runtime.Node) runtime.Node
}

func newReproposalCluster(t *testing.T, filter sim.Filter,
	wrap func(ids.ProcessID, runtime.Node) runtime.Node) *reproposalCluster {
	t.Helper()
	cfg := ids.MustConfig(4, 1)
	c := &reproposalCluster{
		replicas: make(map[ids.ProcessID]*xpaxos.Replica, cfg.N),
		machines: make(map[ids.ProcessID]*xpaxos.KVMachine, cfg.N),
		backends: make(map[ids.ProcessID]*storage.MemBackend, cfg.N),
		wrap:     wrap,
	}
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	for _, p := range cfg.All() {
		c.backends[p] = storage.NewMemBackend()
		nodes[p] = c.boot(p)
	}
	c.net = sim.NewNetwork(cfg, nodes, sim.Options{
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Filter:  filter,
	})
	t.Cleanup(c.net.Close)
	return c
}

// boot builds p's node on p's backend.
func (c *reproposalCluster) boot(p ids.ProcessID) runtime.Node {
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 15 * time.Millisecond
	opts.Storage = c.backends[p]
	c.machines[p] = xpaxos.NewKVMachine()
	node, r := xpaxos.NewQSNode(xpaxos.Options{SM: c.machines[p]}, opts)
	c.replicas[p] = r
	if c.wrap != nil {
		return c.wrap(p, node)
	}
	return node
}

// restart stops p if it runs, crashes its backend (losing whatever it
// had not synced) and brings it back from its WAL.
func (c *reproposalCluster) restart(p ids.ProcessID) {
	c.net.StopProcess(p)
	c.backends[p].Crash()
	c.net.ReplaceProcess(p, c.boot(p))
}

// submit sends requests (client 1, seqs from..to) to p.
func (c *reproposalCluster) submit(p ids.ProcessID, from, to int) {
	for i := from; i <= to; i++ {
		c.replicas[p].Submit(req(1, uint64(i), fmt.Sprintf("set k%d v%d", i, i)))
	}
}

// executed runs the cluster until every replica in ps executed slot,
// and fails the test otherwise.
func (c *reproposalCluster) executed(t *testing.T, slot uint64, ps ...ids.ProcessID) {
	t.Helper()
	ok := c.net.RunUntil(func() bool {
		for _, p := range ps {
			if c.replicas[p].LastExecuted() < slot {
				return false
			}
		}
		return true
	}, c.net.Now()+30*time.Second)
	if !ok {
		for p, r := range c.replicas {
			t.Logf("%s: executed=%d view=%d quorum=%s", p, r.LastExecuted(), r.View(), r.ActiveQuorum())
		}
		t.Fatalf("slot %d did not execute on %v", slot, ps)
	}
}

// TestViewChangeSkipsExecutedSlots: with k slots executed on every
// replica (p4 through lazy replication), the view change that replaces
// a crashed leader re-proposes none of them: the next request, slot
// k+1 under the new leader, is the only PREPARE sent after the crash.
func TestViewChangeSkipsExecutedSlots(t *testing.T) {
	const k = 8
	c := newReproposalCluster(t, nil, nil)
	c.submit(1, 1, k)
	c.executed(t, k, 1, 2, 3, 4)
	m := c.net.Metrics()
	prepares := m.Counter("xpaxos.prepare.sent")

	c.net.StopProcess(1)
	if !c.net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{2, 3, 4} {
			if r := c.replicas[p]; r.ActiveQuorum().Contains(1) || r.Leader() != 2 {
				return false
			}
		}
		return true
	}, c.net.Now()+10*time.Second) {
		t.Fatal("crashed leader was not replaced")
	}
	c.submit(2, k+1, k+1)
	c.executed(t, k+1, 2, 3, 4)
	if got := m.Counter("xpaxos.viewchange.reproposed"); got != 0 {
		t.Errorf("xpaxos.viewchange.reproposed = %d, want 0", got)
	}
	if got := m.Counter("xpaxos.prepare.sent") - prepares; got != 1 {
		t.Errorf("%d PREPAREs sent after the crash, want 1", got)
	}
	for _, p := range []ids.ProcessID{2, 3, 4} {
		ex := c.replicas[p].Executions()
		if last := ex[len(ex)-1]; last.Slot != k+1 || string(last.Op) != fmt.Sprintf("set k%d v%d", k+1, k+1) {
			t.Errorf("%s: last execution %v, want slot %d", p, last, k+1)
		}
	}
}

// TestRestartedMemberCatchesUpThroughViewChange: p3 goes down after
// slot k, slots k+1..2k execute under {1,2,4}, and p3 restarts from its
// WAL with a gap. When p4 then goes down, p3 rejoins the active quorum;
// its low cursor pulls the re-proposal floor down, so it executes every
// slot it missed and ends with the leader's state.
func TestRestartedMemberCatchesUpThroughViewChange(t *testing.T) {
	const k = 5
	c := newReproposalCluster(t, nil, nil)
	c.submit(1, 1, k)
	c.executed(t, k, 1, 2, 3, 4)

	c.net.StopProcess(3)
	c.submit(1, k+1, 2*k)
	c.executed(t, 2*k, 1, 2, 4)
	if c.replicas[1].ActiveQuorum().Contains(3) {
		t.Fatalf("setup: p3 is still in the active quorum %s", c.replicas[1].ActiveQuorum())
	}
	// Let the certificates of slots k+1..2k reach the stopped p3, which
	// drops them: it comes back holding nothing above k.
	c.net.Run(c.net.Now() + 100*time.Millisecond)
	c.restart(3)
	if got := c.replicas[3].LastExecuted(); got != k {
		t.Fatalf("setup: p3 recovered to slot %d, want %d", got, k)
	}
	m := c.net.Metrics()
	reproposed := m.Counter("xpaxos.viewchange.reproposed")
	newViews, views := m.Counter("xpaxos.newview.sent"), c.replicas[1].ViewChanges()
	c.net.StopProcess(4)
	if !c.net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 2, 3} {
			if r := c.replicas[p]; !r.ActiveQuorum().Contains(3) || r.ActiveQuorum().Contains(4) {
				return false
			}
		}
		return true
	}, c.net.Now()+30*time.Second) {
		for p, r := range c.replicas {
			t.Logf("%s: executed=%d view=%d quorum=%s", p, r.LastExecuted(), r.View(), r.ActiveQuorum())
		}
		t.Fatal("p3 did not rejoin the active quorum")
	}
	leader := c.replicas[1]
	c.executed(t, leader.LastExecuted(), 3)
	if got, want := c.replicas[3].LastExecuted(), leader.LastExecuted(); got != want {
		t.Errorf("p3 executed %d, leader %d", got, want)
	}
	if !bytes.Equal(c.machines[3].Snapshot(), c.machines[1].Snapshot()) {
		t.Error("p3's key-value state differs from the leader's")
	}
	if got := m.Counter("xpaxos.viewchange.reproposed") - reproposed; got < k {
		t.Errorf("p3's return re-proposed %d slots, want at least the %d it missed", got, k)
	}
	// The leader installs one view and announces it once. The restarted
	// p3's VIEW-CHANGE for the view that excluded it arrives after that
	// view was installed; it must not install it again.
	if got := c.replicas[1].ViewChanges() - views; got != 1 {
		t.Fatalf("setup: the leader performed %d view changes, want 1", got)
	}
	if got := m.Counter("xpaxos.newview.sent") - newViews; got != 1 {
		t.Errorf("the leader sent %d NEW-VIEWs for the one view it installed, want 1", got)
	}
}

// cursorLiar reports an execution cursor of MaxUint64 in every
// VIEW-CHANGE it sends, re-signed with its own key, and behaves
// correctly otherwise.
type cursorLiar struct{ runtime.Env }

func (l cursorLiar) Send(to ids.ProcessID, m wire.Message) {
	if vc, ok := m.(*wire.ViewChange); ok {
		lie := *vc
		lie.Executed = math.MaxUint64
		runtime.Sign(l.Env, &lie)
		m = &lie
	}
	l.Env.Send(to, m)
}

// lyingNode runs inner against a cursorLiar environment.
type lyingNode struct{ inner runtime.Node }

func (n lyingNode) Init(env runtime.Env)                       { n.inner.Init(cursorLiar{env}) }
func (n lyingNode) Receive(from ids.ProcessID, m wire.Message) { n.inner.Receive(from, m) }
func (n lyingNode) Stop()                                      { runtime.StopNode(n.inner) }

// TestLyingCursorCannotSkipSlots: p2 claims it executed everything.
// Slots 1..k execute among {1,2,3} while p4, passive, gets no
// certificate and holds none of them. When p3 goes down, the new
// quorum {1,2,4} must still re-propose every slot p4 lacks, whatever
// p2 says.
func TestLyingCursorCannotSkipSlots(t *testing.T) {
	const k = 5
	var lies int
	filter := sim.FilterFunc(func(from, _ ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
		if vc, ok := m.(*wire.ViewChange); ok && from == 2 && vc.Executed == math.MaxUint64 {
			lies++
		}
		return sim.Verdict{Drop: m.Kind() == wire.TypeCommitCert}
	})
	c := newReproposalCluster(t, filter, func(p ids.ProcessID, node runtime.Node) runtime.Node {
		if p == 2 {
			return lyingNode{node}
		}
		return node
	})
	c.submit(1, 1, k)
	c.executed(t, k, 1, 2, 3)
	if got := c.replicas[4].LastExecuted(); got != 0 {
		t.Fatalf("setup: passive p4 executed %d", got)
	}

	c.net.StopProcess(3)
	c.submit(1, k+1, k+1)
	c.executed(t, k+1, 1, 2, 4)
	if lies == 0 {
		t.Fatal("p2 sent no VIEW-CHANGE")
	}
	a, b := c.replicas[1].Executions(), c.replicas[4].Executions()
	if len(b) != k+1 {
		t.Fatalf("p4 executed %d slots, want %d", len(b), k+1)
	}
	for i := range b {
		if a[i].Slot != b[i].Slot || !bytes.Equal(a[i].Op, b[i].Op) {
			t.Fatalf("execution %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if !bytes.Equal(c.machines[4].Snapshot(), c.machines[1].Snapshot()) {
		t.Error("p4's key-value state differs from the leader's")
	}
}

// TestStaleViewVotesDropped: a leader keeps the VIEW-CHANGE votes of
// the current view only — each holds its sender's whole log — also
// after it recovers from a WAL holding the votes of every view it led.
func TestStaleViewVotesDropped(t *testing.T) {
	c := newReproposalCluster(t, nil, nil)
	r1 := c.replicas[1]
	for i, q := range [][]ids.ProcessID{{1, 2, 4}, {1, 3, 4}, {1, 2, 3}} {
		for _, r := range c.replicas {
			r.OnQuorum(ids.NewQuorum(q))
		}
		c.submit(1, i+1, i+1)
		c.executed(t, uint64(i+1), q...)
	}
	if r1.ViewChanges() != 3 {
		t.Fatalf("setup: p1 performed %d view changes, want 3", r1.ViewChanges())
	}
	if got := r1.VoteViews(); got != 1 {
		t.Errorf("p1 holds votes for %d views, want 1", got)
	}
	c.restart(1)
	if got := c.replicas[1].VoteViews(); got != 1 {
		t.Errorf("recovered p1 holds votes for %d views, want 1 (the recovered view's)", got)
	}
}

package xpaxos_test

import (
	"fmt"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

type silent struct{}

func (silent) Init(runtime.Env)                    {}
func (silent) Receive(ids.ProcessID, wire.Message) {}

type qsFixture struct {
	net      *sim.Network
	nodes    map[ids.ProcessID]*core.Node
	replicas map[ids.ProcessID]*xpaxos.Replica
}

func newQSFixture(t *testing.T, n, f int, nodeOpts core.NodeOptions, simOpts sim.Options,
	crashed ids.ProcSet, override map[ids.ProcessID]runtime.Node) *qsFixture {
	t.Helper()
	cfg := ids.MustConfig(n, f)
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	fx := &qsFixture{
		nodes:    make(map[ids.ProcessID]*core.Node, n),
		replicas: make(map[ids.ProcessID]*xpaxos.Replica, n),
	}
	for _, p := range cfg.All() {
		if o, ok := override[p]; ok {
			nodes[p] = o
			continue
		}
		if crashed.Contains(p) {
			nodes[p] = silent{}
			continue
		}
		node, replica := xpaxos.NewQSNode(xpaxos.Options{}, nodeOpts)
		fx.nodes[p] = node
		fx.replicas[p] = replica
		nodes[p] = node
	}
	fx.net = sim.NewNetwork(cfg, nodes, simOpts)
	return fx
}

func quietNodeOpts() core.NodeOptions {
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	return opts
}

func req(client, seq uint64, op string) *wire.Request {
	return &wire.Request{Client: client, Seq: seq, Op: []byte(op)}
}

func TestNormalCaseCommitsAndExecutes(t *testing.T) {
	fx := newQSFixture(t, 4, 1, quietNodeOpts(), sim.Options{}, ids.NewProcSet(), nil)
	for i := 1; i <= 5; i++ {
		fx.replicas[1].Submit(req(7, uint64(i), fmt.Sprintf("set k%d v%d", i, i)))
	}
	fx.net.Run(2 * time.Second)
	// Quorum members (1,2,3) execute everything, in the same order.
	for _, p := range []ids.ProcessID{1, 2, 3} {
		r := fx.replicas[p]
		if r.LastExecuted() != 5 {
			t.Errorf("%s executed %d slots, want 5", p, r.LastExecuted())
		}
	}
	a, b := fx.replicas[1].Executions(), fx.replicas[2].Executions()
	for i := range a {
		if string(a[i].Op) != string(b[i].Op) || a[i].Slot != b[i].Slot {
			t.Fatalf("execution order diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// The passive replica p4 follows via lazy replication: the leader
	// ships self-certifying commit certificates (XPaxos keeps passive
	// replicas "lazily updated").
	if fx.replicas[4].LastExecuted() != 5 {
		t.Errorf("passive p4 executed %d slots via lazy replication, want 5", fx.replicas[4].LastExecuted())
	}
	// Nobody was suspected or detected during the fault-free run.
	for p, n := range fx.nodes {
		if !n.Detector.Suspected().Empty() {
			t.Errorf("%s suspects %s in a fault-free run", p, n.Detector.Suspected())
		}
	}
	// No view changes happened.
	if fx.replicas[1].ViewChanges() != 0 {
		t.Errorf("fault-free run did %d view changes", fx.replicas[1].ViewChanges())
	}
}

func TestFigure2MessagePattern(t *testing.T) {
	// One request with quorum size q: q−1 PREPAREs and q×(q−1) COMMITs.
	fx := newQSFixture(t, 7, 2, quietNodeOpts(), sim.Options{}, ids.NewProcSet(), nil)
	fx.replicas[1].Submit(req(1, 1, "set x 1"))
	fx.net.Run(time.Second)
	q := int64(5)
	m := fx.net.Metrics()
	if got := m.Counter("msg.sent.PREPARE"); got != q-1 {
		t.Errorf("PREPARE messages = %d, want %d", got, q-1)
	}
	if got := m.Counter("msg.sent.COMMIT"); got != q*(q-1) {
		t.Errorf("COMMIT messages = %d, want %d", got, q*(q-1))
	}
	for _, p := range []ids.ProcessID{1, 2, 3, 4, 5} {
		if fx.replicas[p].LastExecuted() != 1 {
			t.Errorf("%s did not execute", p)
		}
	}
}

func TestFigure3DelayedPrepare(t *testing.T) {
	// The PREPARE from the leader to p3 is delayed beyond the COMMITs
	// of the other replicas: p3 must adopt the prepare from a COMMIT,
	// send its own COMMIT, and the slot must commit without any false
	// suspicion between correct processes.
	delay := sim.FilterFunc(func(from, to ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
		if from == 1 && to == 3 && m.Kind() == wire.TypePrepare {
			return sim.Verdict{Delay: 15 * time.Millisecond}
		}
		return sim.Verdict{}
	})
	fx := newQSFixture(t, 4, 1, quietNodeOpts(), sim.Options{
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Filter:  delay,
	}, ids.NewProcSet(), nil)
	fx.replicas[1].Submit(req(1, 1, "set a 1"))
	fx.net.Run(time.Second)
	for _, p := range []ids.ProcessID{1, 2, 3} {
		if fx.replicas[p].LastExecuted() != 1 {
			t.Errorf("%s did not execute the delayed-prepare slot", p)
		}
	}
	for p, n := range fx.nodes {
		if !n.Detector.Suspected().Empty() {
			t.Errorf("%s raised suspicions on a merely-delayed PREPARE: %s",
				p, n.Detector.Suspected())
		}
	}
	if fx.replicas[1].ViewChanges() != 0 {
		t.Error("delayed PREPARE caused a view change")
	}
}

// equivocator is a malicious leader that sends conflicting PREPAREs for
// the same slot to different replicas.
type equivocator struct {
	env runtime.Env
}

func (e *equivocator) Init(env runtime.Env) {
	e.env = env
	prepA := &wire.Prepare{Leader: 1, View: 0, Slot: 1,
		Req: wire.Request{Client: 1, Seq: 1, Op: []byte("op A")}, Sig: []byte{0}}
	prepB := &wire.Prepare{Leader: 1, View: 0, Slot: 1,
		Req: wire.Request{Client: 1, Seq: 1, Op: []byte("op B")}, Sig: []byte{0}}
	env.After(time.Millisecond, func() {
		env.Send(2, prepA)
		env.Send(3, prepB)
	})
}

func (e *equivocator) Receive(ids.ProcessID, wire.Message) {}

func TestEquivocationDetected(t *testing.T) {
	fx := newQSFixture(t, 4, 1, quietNodeOpts(), sim.Options{}, ids.NewProcSet(),
		map[ids.ProcessID]runtime.Node{1: &equivocator{}})
	fx.net.Run(2 * time.Second)
	// p2 and p3 exchanged COMMITs carrying conflicting PREPAREs; at
	// least one of them must detect the leader's equivocation.
	detected := false
	for _, p := range []ids.ProcessID{2, 3} {
		if fx.nodes[p].Detector.IsDetected(1) {
			detected = true
		}
	}
	if !detected {
		t.Fatal("equivocating leader was not detected")
	}
	if fx.net.Metrics().Counter("xpaxos.detected.equivocation") == 0 {
		t.Error("equivocation metric not incremented")
	}
}

// malformedCommitter sends a COMMIT without an embedded PREPARE.
type malformedCommitter struct{ env runtime.Env }

func (mc *malformedCommitter) Init(env runtime.Env) {
	mc.env = env
	bad := &wire.Commit{Replica: 2, View: 0, Slot: 1, HasPrep: false, Sig: []byte{0}}
	env.After(time.Millisecond, func() { env.Send(3, bad) })
}

func (mc *malformedCommitter) Receive(ids.ProcessID, wire.Message) {}

func TestMalformedCommitDetected(t *testing.T) {
	fx := newQSFixture(t, 4, 1, quietNodeOpts(), sim.Options{}, ids.NewProcSet(),
		map[ids.ProcessID]runtime.Node{2: &malformedCommitter{}})
	fx.net.Run(time.Second)
	if !fx.nodes[3].Detector.IsDetected(2) {
		t.Error("malformed COMMIT (no PREPARE) was not detected")
	}
}

func TestCrashedQuorumMemberReplaced(t *testing.T) {
	// p3 (an active-quorum member) is crashed. Commit expectations
	// expire, Quorum Selection excludes p3, the view changes to quorum
	// {1,2,4}, and the outstanding request commits there.
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0 // commit expectations alone must catch this
	fx := newQSFixture(t, 4, 1, opts, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)},
		ids.NewProcSet(3), nil)
	fx.replicas[1].Submit(req(9, 1, "set x crash-test"))
	ok := fx.net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 2, 4} {
			if fx.replicas[p].LastExecuted() < 1 {
				return false
			}
		}
		return true
	}, 10*time.Second)
	if !ok {
		for p, r := range fx.replicas {
			t.Logf("%s: view=%d quorum=%s executed=%d", p, r.View(), r.ActiveQuorum(), r.LastExecuted())
		}
		t.Fatal("request did not execute after quorum member crash")
	}
	want := ids.NewQuorum([]ids.ProcessID{1, 2, 4})
	for _, p := range []ids.ProcessID{1, 2, 4} {
		r := fx.replicas[p]
		if !ids.NewQuorum(r.ActiveQuorum().Members).Equal(want) {
			t.Errorf("%s: active quorum = %s, want %s", p, r.ActiveQuorum(), want)
		}
		if r.ViewChanges() == 0 {
			t.Errorf("%s performed no view change", p)
		}
	}
	// Executions agree.
	a := fx.replicas[1].Executions()
	b := fx.replicas[2].Executions()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("execution logs differ: %v vs %v", a, b)
	}
	if string(a[0].Op) != "set x crash-test" {
		t.Errorf("executed op = %q", a[0].Op)
	}
	// The recovery is observable: the view change and the commit both
	// left latency samples, and the bus carries the phase transitions.
	reg := fx.net.Metrics()
	if h, ok := reg.Hist("xpaxos.viewchange.duration.seconds"); !ok || h.Count == 0 {
		t.Error("xpaxos.viewchange.duration.seconds histogram empty after a view change")
	} else if p50 := h.Percentile(50); p50 <= 0 {
		t.Errorf("view-change duration p50 = %v, want positive", p50)
	}
	if h, ok := reg.Hist("xpaxos.commit.latency.seconds"); !ok || h.Count == 0 {
		t.Error("xpaxos.commit.latency.seconds histogram empty after a commit")
	}
	bus := fx.net.Events()
	if len(bus.OfType(obs.TypeViewChangeStart)) == 0 || len(bus.OfType(obs.TypeViewChangeEnd)) == 0 {
		t.Error("missing VIEW_CHANGE_START/VIEW_CHANGE_END events")
	}
}

func TestCrashedLeaderReplaced(t *testing.T) {
	// The default leader p1 is crashed. With heartbeats on, everyone
	// suspects it; the new quorum {2,3,4} elects p2 as leader and new
	// requests execute there.
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 15 * time.Millisecond
	fx := newQSFixture(t, 4, 1, opts, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)},
		ids.NewProcSet(1), nil)
	ok := fx.net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{2, 3, 4} {
			r := fx.replicas[p]
			if r.ActiveQuorum().Contains(1) || r.Leader() != 2 {
				return false
			}
		}
		return true
	}, 10*time.Second)
	if !ok {
		t.Fatal("crashed leader was not replaced")
	}
	fx.replicas[2].Submit(req(5, 1, "set y after-leader-crash"))
	ok = fx.net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{2, 3, 4} {
			if fx.replicas[p].LastExecuted() < 1 {
				return false
			}
		}
		return true
	}, 10*time.Second)
	if !ok {
		t.Fatal("request did not execute under the new leader")
	}
}

func TestEnumerationBaselineCrash(t *testing.T) {
	// The enumeration baseline must also recover from a crashed quorum
	// member by advancing views round-robin until a clean quorum is
	// found.
	cfg := ids.MustConfig(4, 1)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	for _, p := range cfg.All() {
		if p == 3 {
			nodes[p] = silent{}
			continue
		}
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 15 * time.Millisecond
		node, r := xpaxos.NewStandaloneNode(xpaxos.Options{}, opts)
		replicas[p] = r
		nodes[p] = node
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)})
	ok := net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 2, 4} {
			if replicas[p].ActiveQuorum().Contains(3) {
				return false
			}
		}
		return true
	}, 10*time.Second)
	if !ok {
		for p, r := range replicas {
			t.Logf("%s: view=%d quorum=%s", p, r.View(), r.ActiveQuorum())
		}
		t.Fatal("baseline did not move past the crashed member")
	}
	replicas[1].Submit(req(2, 1, "set z baseline"))
	ok = net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 2, 4} {
			if replicas[p].LastExecuted() < 1 {
				return false
			}
		}
		return true
	}, 10*time.Second)
	if !ok {
		t.Fatal("baseline did not execute after view change")
	}
}

// crashable allows killing a live node mid-run.
type crashable struct {
	inner   runtime.Node
	crashed bool
}

func (c *crashable) Init(env runtime.Env) { c.inner.Init(env) }
func (c *crashable) Receive(from ids.ProcessID, m wire.Message) {
	if !c.crashed {
		c.inner.Receive(from, m)
	}
}

func TestPassiveReplicaCatchesUpAfterViewChange(t *testing.T) {
	// Slots 1..5 commit in view 0 among {1,2,3} while p4 is passive —
	// with the lazy-replication certificates suppressed, so p4 really
	// holds nothing. p3 then crashes; the view change must hand p4 the
	// full log so it executes from slot 1.
	cfg := ids.MustConfig(4, 1)
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 20 * time.Millisecond
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	wrappers := make(map[ids.ProcessID]*crashable, cfg.N)
	for _, p := range cfg.All() {
		node, replica := xpaxos.NewQSNode(xpaxos.Options{}, opts)
		replicas[p] = replica
		wrappers[p] = &crashable{inner: node}
		nodes[p] = wrappers[p]
	}
	dropCerts := sim.FilterFunc(func(_, _ ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
		return sim.Verdict{Drop: m.Kind() == wire.TypeCommitCert}
	})
	net := sim.NewNetwork(cfg, nodes, sim.Options{
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Filter:  dropCerts,
	})
	for i := 1; i <= 5; i++ {
		replicas[1].Submit(req(1, uint64(i), "op"))
	}
	if !net.RunUntil(func() bool { return replicas[1].LastExecuted() >= 5 }, 10*time.Second) {
		t.Fatal("setup: slots 1..5 did not commit")
	}
	if replicas[4].LastExecuted() != 0 {
		t.Fatalf("setup: passive p4 executed %d", replicas[4].LastExecuted())
	}
	wrappers[3].crashed = true
	replicas[1].Submit(req(1, 6, "op"))
	ok := net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 2, 4} {
			if replicas[p].LastExecuted() < 6 {
				return false
			}
		}
		return true
	}, 30*time.Second)
	if !ok {
		for p, r := range replicas {
			t.Logf("%s: executed=%d view=%d quorum=%s", p, r.LastExecuted(), r.View(), r.ActiveQuorum())
		}
		t.Fatal("former passive replica did not catch up after view change")
	}
	// Execution logs agree prefix-wise between an old member and the
	// newcomer.
	a, b := replicas[1].Executions(), replicas[4].Executions()
	if len(b) != 6 {
		t.Fatalf("p4 executions = %d, want 6", len(b))
	}
	for i := range b {
		if a[i].Slot != b[i].Slot || string(a[i].Op) != string(b[i].Op) {
			t.Fatalf("execution mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClientRequestForwarding(t *testing.T) {
	// Submitting at a non-leader forwards to the leader.
	fx := newQSFixture(t, 4, 1, quietNodeOpts(), sim.Options{}, ids.NewProcSet(), nil)
	fx.replicas[2].Submit(req(3, 1, "set f forwarded"))
	fx.net.Run(time.Second)
	for _, p := range []ids.ProcessID{1, 2, 3} {
		if fx.replicas[p].LastExecuted() != 1 {
			t.Errorf("%s did not execute the forwarded request", p)
		}
	}
}

func TestDuplicateRequestSuppressed(t *testing.T) {
	fx := newQSFixture(t, 4, 1, quietNodeOpts(), sim.Options{}, ids.NewProcSet(), nil)
	fx.replicas[1].Submit(req(3, 1, "set d once"))
	fx.net.Run(time.Second)
	fx.replicas[1].Submit(req(3, 1, "set d once")) // duplicate
	fx.net.Run(fx.net.Now() + time.Second)
	if got := fx.replicas[2].LastExecuted(); got != 1 {
		t.Errorf("duplicate executed: lastExec = %d, want 1", got)
	}
}

func TestOnQuorumSameQuorumNoViewChange(t *testing.T) {
	// A ⟨QUORUM⟩ event naming the already-active quorum must not
	// trigger a view change (the delta == 0 path of §V-B).
	fx := newQSFixture(t, 4, 1, quietNodeOpts(), sim.Options{}, ids.NewProcSet(), nil)
	r := fx.replicas[2]
	r.OnQuorum(ids.NewQuorum([]ids.ProcessID{1, 2, 3})) // the default
	fx.net.Run(time.Second)
	if r.ViewChanges() != 0 {
		t.Errorf("redundant QUORUM caused %d view changes", r.ViewChanges())
	}
	if r.View() != 0 {
		t.Errorf("view = %d, want 0", r.View())
	}
}

func TestKVMachineStateAgrees(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	machines := make(map[ids.ProcessID]*xpaxos.KVMachine, cfg.N)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	for _, p := range cfg.All() {
		kv := xpaxos.NewKVMachine()
		node, replica := xpaxos.NewQSNode(xpaxos.Options{SM: kv}, quietNodeOpts())
		machines[p] = kv
		replicas[p] = replica
		nodes[p] = node
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	replicas[1].Submit(req(1, 1, "set name quorum"))
	replicas[1].Submit(req(1, 2, "append name -selection"))
	net.Run(2 * time.Second)
	for _, p := range []ids.ProcessID{1, 2, 3} {
		v, ok := machines[p].Get("name")
		if !ok || v != "quorum-selection" {
			t.Errorf("%s: name = %q, %v", p, v, ok)
		}
	}
}

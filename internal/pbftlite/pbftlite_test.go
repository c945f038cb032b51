package pbftlite_test

import (
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/fd"
	"quorumselect/internal/ids"
	"quorumselect/internal/pbftlite"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

type silent struct{}

func (silent) Init(runtime.Env)                    {}
func (silent) Receive(ids.ProcessID, wire.Message) {}

func quietFD() fd.Options {
	o := fd.DefaultOptions()
	o.BaseTimeout = 200 * time.Millisecond
	return o
}

func newBroadcastNet(t *testing.T, n, f int, crashed ids.ProcSet) (*sim.Network, map[ids.ProcessID]*pbftlite.Replica, *sim.Network) {
	t.Helper()
	cfg := ids.MustConfig(n, f)
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	replicas := make(map[ids.ProcessID]*pbftlite.Replica, n)
	for _, p := range cfg.All() {
		if crashed.Contains(p) {
			nodes[p] = silent{}
			continue
		}
		sn := pbftlite.NewStandaloneNode(pbftlite.Options{}, quietFD(), 0)
		replicas[p] = sn.Replica
		nodes[p] = sn
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	return net, replicas, net
}

func req(client, seq uint64, op string) *wire.Request {
	return &wire.Request{Client: client, Seq: seq, Op: []byte(op)}
}

func TestBroadcastAllCommits(t *testing.T) {
	net, replicas, _ := newBroadcastNet(t, 4, 1, ids.NewProcSet())
	for i := 1; i <= 3; i++ {
		replicas[1].Submit(req(1, uint64(i), "op"))
	}
	net.Run(2 * time.Second)
	for p, r := range replicas {
		if r.LastExecuted() != 3 {
			t.Errorf("%s executed %d, want 3", p, r.LastExecuted())
		}
	}
}

// TestDuplicateSubmitExecutesOnce: one request submitted twice to the
// primary takes two slots, and every replica runs it once.
func TestDuplicateSubmitExecutesOnce(t *testing.T) {
	net, replicas, _ := newBroadcastNet(t, 4, 1, ids.NewProcSet())
	replicas[1].Submit(req(3, 1, "append d x"))
	replicas[1].Submit(req(3, 1, "append d x"))
	net.Run(2 * time.Second)
	for p, r := range replicas {
		if r.LastExecuted() != 2 {
			t.Errorf("%s reached slot %d, want 2 (both copies commit)", p, r.LastExecuted())
		}
		if h := r.Executions(); len(h) != 1 || h[0].Slot != 1 {
			t.Errorf("%s executed %v, want the request once, at slot 1", p, h)
		}
	}
}

func TestBroadcastAllMasksFaults(t *testing.T) {
	// One crashed replica (f=1): PBFT must still commit with 2f+1
	// votes — the "constant masking" the paper's intro describes.
	net, replicas, _ := newBroadcastNet(t, 4, 1, ids.NewProcSet(4))
	replicas[1].Submit(req(1, 1, "op"))
	net.Run(2 * time.Second)
	for _, p := range []ids.ProcessID{1, 2, 3} {
		if replicas[p].LastExecuted() != 1 {
			t.Errorf("%s did not execute despite 2f+1 correct replicas", p)
		}
	}
}

func TestMessageCountsPerRegime(t *testing.T) {
	// The §I accounting: BroadcastAll sends (n−1) + 2n(n−1) messages
	// per request; ActiveQuorum sends (q−1) + 2q(q−1). For n = 3f+1 and
	// q = n−f the active-quorum regime saves a bit over 40% of the
	// normal-case messages (the paper's ≈1/3 refers to dropping f of
	// the 3f+1 replicas; the quadratic phases push the measured saving
	// higher).
	const requests = 10
	count := func(active bool) int64 {
		cfg := ids.MustConfig(7, 2)
		nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
		var first *pbftlite.Replica
		for _, p := range cfg.All() {
			if active {
				opts := core.DefaultNodeOptions()
				opts.HeartbeatPeriod = 0
				node, r := pbftlite.NewQSNode(pbftlite.Options{}, opts)
				if p == 1 {
					first = r
				}
				nodes[p] = node
			} else {
				sn := pbftlite.NewStandaloneNode(pbftlite.Options{}, quietFD(), 0)
				if p == 1 {
					first = sn.Replica
				}
				nodes[p] = sn
			}
		}
		net := sim.NewNetwork(cfg, nodes, sim.Options{})
		for i := 1; i <= requests; i++ {
			first.Submit(req(1, uint64(i), "op"))
		}
		net.Run(5 * time.Second)
		m := net.Metrics()
		return m.Counter("msg.sent.PRE-PREPARE") +
			m.Counter("msg.sent.PBFT-PREPARE") +
			m.Counter("msg.sent.PBFT-COMMIT")
	}
	broadcast := count(false)
	activeQ := count(true)
	n, q := int64(7), int64(5)
	wantBroadcast := requests * ((n - 1) + 2*n*(n-1))
	wantActive := requests * ((q - 1) + 2*q*(q-1))
	if broadcast != wantBroadcast {
		t.Errorf("broadcast-all messages = %d, want %d", broadcast, wantBroadcast)
	}
	if activeQ != wantActive {
		t.Errorf("active-quorum messages = %d, want %d", activeQ, wantActive)
	}
	if activeQ >= broadcast {
		t.Errorf("active quorum (%d) did not save messages vs broadcast (%d)", activeQ, broadcast)
	}
}

func TestActiveQuorumFollowsSelection(t *testing.T) {
	// Crash p3; quorum selection moves the active set to {1,2,4} and
	// the request commits there with every active member voting.
	cfg := ids.MustConfig(4, 1)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	replicas := make(map[ids.ProcessID]*pbftlite.Replica, cfg.N)
	for _, p := range cfg.All() {
		if p == 3 {
			nodes[p] = silent{}
			continue
		}
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 15 * time.Millisecond
		node, r := pbftlite.NewQSNode(pbftlite.Options{}, opts)
		replicas[p] = r
		nodes[p] = node
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)})
	ok := net.RunUntil(func() bool {
		want := ids.NewQuorum([]ids.ProcessID{1, 2, 4})
		for _, p := range []ids.ProcessID{1, 2, 4} {
			if !ids.NewQuorum(replicas[p].Active().Members).Equal(want) {
				return false
			}
		}
		return true
	}, 10*time.Second)
	if !ok {
		for p, r := range replicas {
			t.Logf("%s: active=%s", p, r.Active())
		}
		t.Fatal("selection did not move the active set past the crashed replica")
	}
	replicas[1].Submit(req(1, 1, "op"))
	ok = net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 2, 4} {
			if replicas[p].LastExecuted() < 1 {
				return false
			}
		}
		return true
	}, 10*time.Second)
	if !ok {
		t.Fatal("request did not commit in the selected quorum")
	}
}

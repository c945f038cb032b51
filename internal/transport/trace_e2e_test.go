package transport_test

import (
	"sync"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/transport"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// newTracedXPaxosCluster builds a 4-process XPaxos cluster over real
// TCP, every host recording into ONE shared stream. Span IDs are
// node-prefixed, so the shared ring never collides; each host stamps
// times on its own monotonic clock, so only same-node durations are
// compared below.
func newTracedXPaxosCluster(t *testing.T) (map[ids.ProcessID]*transport.Host, map[ids.ProcessID]*xpaxos.Replica, *obs.Bus) {
	t.Helper()
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("cluster-secret"))
	tr := obs.NewBus(0)
	tr.SetEnabled(true)
	hosts := make(map[ids.ProcessID]*transport.Host, cfg.N)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	for _, p := range cfg.All() {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		node, replica := xpaxos.NewQSNode(xpaxos.Options{}, opts)
		host, err := transport.NewHost(transport.Config{
			Self: p, System: cfg, Auth: auth, Tracer: tr, Seed: int64(p),
		}, node)
		if err != nil {
			t.Fatalf("NewHost(%s): %v", p, err)
		}
		hosts[p] = host
		replicas[p] = replica
	}
	for _, p := range cfg.All() {
		for _, q := range cfg.All() {
			if p != q {
				hosts[p].SetPeerAddr(q, hosts[q].Addr())
			}
		}
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			h.Close()
		}
	})
	return hosts, replicas, tr
}

// TestTraceSpanTreeOverTCP reconstructs the causal span tree of one
// committed request across real TCP hosts — the same tree shape the
// simulator test pins, but assembled from four independent monotonic
// clocks — and checks the leader's stage durations still account for
// (almost all of) the end-to-end commit latency on the leader's own
// clock. Concurrent readers hammer the shared stream while the
// protocol records into it, which makes this the -race storm for the
// stream's locking.
func TestTraceSpanTreeOverTCP(t *testing.T) {
	hosts, replicas, tr := newTracedXPaxosCluster(t)

	// Reader storm: /trace-endpoint-style snapshots while spans are
	// being recorded from four event loops. The readers poll rather
	// than busy-spin so they don't starve the cluster on small
	// GOMAXPROCS — what matters for -race is the overlap, not the rate.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_ = tr.Spans()
					_ = obs.Capture("storm", tr).JSON()
					_ = tr.Dropped()
				}
			}
		}()
	}

	hosts[1].Do(func() {
		replicas[1].Submit(&wire.Request{Client: 3, Seq: 1, Op: []byte("set tcp traced")})
	})
	ok := waitFor(t, 30*time.Second, func() bool {
		for _, p := range []ids.ProcessID{1, 2, 3, 4} {
			var exec uint64
			hosts[p].Do(func() { exec = replicas[p].LastExecuted() })
			if exec < 1 {
				return false
			}
		}
		return true
	})
	close(stop)
	wg.Wait()
	if !ok {
		for _, p := range []ids.ProcessID{1, 2, 3, 4} {
			var exec uint64
			hosts[p].Do(func() { exec = replicas[p].LastExecuted() })
			t.Logf("%s: executed=%d", p, exec)
		}
		t.Fatal("request did not execute on all replicas over TCP")
	}

	spans := tr.Spans()
	byName := make(map[ids.ProcessID]map[string]obs.Span)
	idx := make(map[uint64]obs.Span, len(spans))
	for _, s := range spans {
		idx[s.ID] = s
		if byName[s.Node] == nil {
			byName[s.Node] = make(map[string]obs.Span)
		}
		byName[s.Node][s.Name] = s
	}
	leader := byName[1]
	root, ok2 := leader["ingress"]
	if !ok2 {
		t.Fatal("leader recorded no ingress span")
	}
	if root.Parent != 0 || root.Trace != root.ID {
		t.Fatalf("leader ingress is not the trace root: %+v", root)
	}

	// One trace spans all four processes, and every parent pointer
	// resolves inside it.
	nodes := make(map[ids.ProcessID]bool)
	for _, s := range spans {
		if s.Trace != root.Trace {
			t.Errorf("span %s on %s belongs to stray trace %#x", s.Name, s.Node, s.Trace)
			continue
		}
		nodes[s.Node] = true
		if s.Parent != 0 {
			if _, in := idx[s.Parent]; !in {
				t.Errorf("span %s on %s: parent %#x not recorded", s.Name, s.Node, s.Parent)
			}
		}
	}
	if len(nodes) < 4 {
		t.Errorf("trace covers %d nodes, want all 4 (got %v)", len(nodes), nodes)
	}
	if leader["propose"].Parent != root.ID || leader["quorum"].Parent != leader["propose"].ID {
		t.Errorf("leader stage chain broken: propose.parent=%#x quorum.parent=%#x",
			leader["propose"].Parent, leader["quorum"].Parent)
	}
	for _, p := range []ids.ProcessID{2, 3} {
		if acc, in := byName[p]["accept"]; !in || acc.Parent != leader["propose"].ID {
			t.Errorf("%s accept span missing or mis-parented: %+v", p, acc)
		}
	}

	// Stage accounting on the leader's monotonic clock: the four stages
	// run back-to-back on the event loop, so their summed duration must
	// not exceed the end-to-end latency and must account for nearly all
	// of it (the slack is just inter-callback scheduling).
	var sum time.Duration
	for _, name := range []string{"ingress", "propose", "quorum", "execute"} {
		s, in := leader[name]
		if !in {
			t.Fatalf("leader recorded no %q span", name)
		}
		sum += s.Dur
	}
	e2e := leader["execute"].Start + leader["execute"].Dur - leader["ingress"].Start
	if sum > e2e {
		t.Errorf("stage durations sum %v exceeds end-to-end latency %v", sum, e2e)
	}
	if slack := e2e - sum; slack > 250*time.Millisecond {
		t.Errorf("stages account for too little of the commit path: sum=%v e2e=%v slack=%v", sum, e2e, slack)
	}
}

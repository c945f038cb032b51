package transport_test

import (
	gort "runtime"
	"sync"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/transport"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// newXPaxosCluster launches n XPaxos-on-Quorum-Selection hosts with
// heartbeats and real signatures — the full production composition —
// on ephemeral localhost ports.
func newXPaxosCluster(t *testing.T, n, f int, batch int) (map[ids.ProcessID]*transport.Host, map[ids.ProcessID]*xpaxos.Replica) {
	t.Helper()
	cfg := ids.MustConfig(n, f)
	auth := crypto.NewHMACRing(cfg, []byte("lifecycle-secret"))
	hosts := make(map[ids.ProcessID]*transport.Host, n)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, n)
	for _, p := range cfg.All() {
		nodeOpts := core.DefaultNodeOptions()
		nodeOpts.HeartbeatPeriod = 25 * time.Millisecond
		node, replica := xpaxos.NewQSNode(xpaxos.Options{
			BatchSize:       batch,
			MaxBatchLatency: 2 * time.Millisecond,
		}, nodeOpts)
		h, err := transport.NewHost(transport.Config{
			Self:   p,
			System: cfg,
			Auth:   auth,
			Seed:   int64(p),
		}, node)
		if err != nil {
			t.Fatalf("NewHost(%s): %v", p, err)
		}
		hosts[p] = h
		replicas[p] = replica
	}
	for _, p := range cfg.All() {
		for _, q := range cfg.All() {
			if p != q {
				hosts[p].SetPeerAddr(q, hosts[q].Addr())
			}
		}
	}
	return hosts, replicas
}

// TestCloseReleasesGoroutines drives a loaded cluster, closes every
// host, and requires the goroutine count to return to its baseline: a
// leaked peer writer, read loop, or un-stopped heartbeat timer keeps
// goroutines alive and fails this.
func TestCloseReleasesGoroutines(t *testing.T) {
	baseline := gort.NumGoroutine()

	hosts, replicas := newXPaxosCluster(t, 4, 1, 1)
	// Generate real traffic so every peer connection and writer exists.
	for i := 1; i <= 20; i++ {
		seq := uint64(i)
		hosts[1].Do(func() {
			replicas[1].Submit(&wire.Request{Client: 9, Seq: seq, Op: []byte("set k v")})
		})
	}
	if !waitFor(t, 5*time.Second, func() bool {
		var done uint64
		hosts[1].Do(func() { done = replicas[1].LastExecuted() })
		return done >= 20
	}) {
		t.Fatal("cluster did not commit the warm-up load")
	}

	for _, h := range hosts {
		if err := h.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
	// Second Close must be a no-op returning nil.
	for _, h := range hosts {
		if err := h.Close(); err != nil {
			t.Errorf("second Close: %v, want nil", err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		gort.GC() // collect dropped connections promptly
		if gort.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, gort.NumGoroutine())
}

// TestCloseDuringTrafficStorm closes hosts while submitters are mid-
// flight, under -race: Close must not deadlock, double-Close stays nil,
// and no submitter may panic against a closing host.
func TestCloseDuringTrafficStorm(t *testing.T) {
	hosts, replicas := newXPaxosCluster(t, 4, 1, 8)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 1; c <= 4; c++ {
		wg.Add(1)
		go func(client uint64) {
			defer wg.Done()
			seq := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				seq++
				s := seq
				hosts[1].Do(func() {
					replicas[1].Submit(&wire.Request{Client: client, Seq: s, Op: []byte("set k v")})
				})
			}
		}(uint64(c))
	}

	time.Sleep(100 * time.Millisecond)
	// Close hosts concurrently while the storm is still running.
	var closers sync.WaitGroup
	for _, h := range hosts {
		closers.Add(1)
		go func(h *transport.Host) {
			defer closers.Done()
			if err := h.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if err := h.Close(); err != nil {
				t.Errorf("second Close: %v, want nil", err)
			}
		}(h)
	}
	closers.Wait()
	close(stop)
	wg.Wait()
}

// TestStopDropsTraffic verifies the host lifecycle contract end to end
// on one TCP process: after Close, the node is stopped and further
// submissions are ignored rather than crashing into torn-down state.
func TestStopDropsTraffic(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("stop-secret"))
	stopOpts := core.DefaultNodeOptions()
	stopOpts.HeartbeatPeriod = 25 * time.Millisecond
	node, _ := xpaxos.NewQSNode(xpaxos.Options{}, stopOpts)
	h, err := transport.NewHost(transport.Config{Self: 1, System: cfg, Auth: auth, Seed: 1}, node)
	if err != nil {
		t.Fatal(err)
	}
	if got := node.State(); got != host.StateRunning {
		t.Fatalf("state after NewHost = %s, want running", got)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := node.State(); got != host.StateStopped {
		t.Fatalf("state after Close = %s, want stopped", got)
	}
	// A stopped node drops traffic instead of processing it.
	node.Receive(2, &wire.Heartbeat{From: 2, Seq: 1})
}

// selfSender records the heartbeats it receives from itself.
type selfSender struct {
	env  runtime.Env
	seqs []uint64
}

func (n *selfSender) Init(env runtime.Env) { n.env = env }

func (n *selfSender) Receive(from ids.ProcessID, m wire.Message) {
	if hb, ok := m.(*wire.Heartbeat); ok && from == n.env.ID() {
		n.seqs = append(n.seqs, hb.Seq)
	}
}

// TestSelfSendBurstFromLoop sends a node more messages to itself from
// one handler than the event queue holds — what a suspicion storm's
// broadcast-including-self does under load. The loop must not wait on
// its own queue: the handler returns, every message arrives in send
// order, and Close still completes.
func TestSelfSendBurstFromLoop(t *testing.T) {
	const burst = 3000 // > the 1024-slot event queue
	node := &selfSender{}
	h, err := transport.NewHost(transport.Config{Self: 1, System: ids.MustConfig(4, 1)}, node)
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		h.Do(func() {
			for i := 1; i <= burst; i++ {
				node.env.Send(1, &wire.Heartbeat{From: 1, Seq: uint64(i)})
			}
		})
		var got []uint64
		h.Do(func() { got = node.seqs })
		if len(got) != burst {
			t.Errorf("delivered %d of %d self-sends", len(got), burst)
		}
		for i, seq := range got {
			if seq != uint64(i+1) {
				t.Errorf("delivery %d carries seq %d: self-sends reordered", i, seq)
				break
			}
		}
		if err := h.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("event loop deadlocked sending to itself")
	}
}

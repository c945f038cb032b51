package transport_test

import (
	"sync"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/storage"
	"quorumselect/internal/transport"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// newDurableXPaxosCluster is newXPaxosCluster with a private in-memory
// storage backend behind every host — the full production composition
// including the durability layer.
func newDurableXPaxosCluster(t *testing.T, n, f, batch int) (map[ids.ProcessID]*transport.Host, map[ids.ProcessID]*xpaxos.Replica, map[ids.ProcessID]*storage.MemBackend) {
	t.Helper()
	cfg := ids.MustConfig(n, f)
	auth := crypto.NewHMACRing(cfg, []byte("durable-secret"))
	hosts := make(map[ids.ProcessID]*transport.Host, n)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, n)
	backends := make(map[ids.ProcessID]*storage.MemBackend, n)
	for _, p := range cfg.All() {
		nodeOpts := core.DefaultNodeOptions()
		nodeOpts.HeartbeatPeriod = 25 * time.Millisecond
		// Hosts start one by one and learn peer addresses only after all
		// are up, so at the default 40 ms base timeout boot itself raises
		// suspicions and deposes the leader holding the test's requests.
		// These tests are about durability, not detection: FD sized as
		// in the pipeline benchmark.
		nodeOpts.FD.BaseTimeout = 2 * time.Second
		nodeOpts.FD.MaxTimeout = 4 * time.Second
		backends[p] = storage.NewMemBackend()
		nodeOpts.Storage = backends[p]
		node, replica := xpaxos.NewQSNode(xpaxos.Options{
			BatchSize:          batch,
			CheckpointInterval: 16,
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
	return hosts, replicas, backends
}

// TestDurableCloseDuringTrafficStorm races Host.Close against
// submitters on a storage-backed cluster, under -race: every commit
// path now also appends and fsyncs WAL records, so this exercises the
// store's flush-on-stop against in-flight group commits. Close must not
// deadlock, double-Close stays nil, and no append may panic into a
// closed store.
func TestDurableCloseDuringTrafficStorm(t *testing.T) {
	hosts, replicas, _ := newDurableXPaxosCluster(t, 4, 1, 8)

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

// TestDurableRestartOverTCP is the cmd/xpaxos -data-dir story on
// ephemeral ports: commit traffic, tear the whole cluster down, rebuild
// every host over the surviving backends, and demand each replica wakes
// up with its acknowledged history before any network message arrives.
func TestDurableRestartOverTCP(t *testing.T) {
	hosts, replicas, backends := newDurableXPaxosCluster(t, 4, 1, 1)

	const load = 15
	for i := 1; i <= load; i++ {
		seq := uint64(i)
		hosts[1].Do(func() {
			replicas[1].Submit(&wire.Request{Client: 7, Seq: seq, Op: []byte("set k v")})
		})
	}
	if !waitFor(t, 5*time.Second, func() bool {
		var done uint64
		hosts[1].Do(func() { done = replicas[1].LastExecuted() })
		return done >= load
	}) {
		t.Fatal("cluster did not commit the warm-up load")
	}

	before := make(map[ids.ProcessID][]xpaxos.Execution, len(hosts))
	for p, h := range hosts {
		p, r := p, replicas[p]
		h.Do(func() { before[p] = r.Executions() })
	}
	for p, h := range hosts {
		if err := h.Close(); err != nil {
			t.Fatalf("Close(%s): %v", p, err)
		}
	}

	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("durable-secret"))
	for _, p := range cfg.All() {
		nodeOpts := core.DefaultNodeOptions()
		nodeOpts.HeartbeatPeriod = 25 * time.Millisecond
		nodeOpts.Storage = backends[p]
		node, replica := xpaxos.NewQSNode(xpaxos.Options{CheckpointInterval: 16}, nodeOpts)
		h, err := transport.NewHost(transport.Config{
			Self:   p,
			System: cfg,
			Auth:   auth,
			Seed:   int64(p) + 100,
		}, node)
		if err != nil {
			t.Fatalf("reopen NewHost(%s): %v", p, err)
		}
		defer h.Close()
		var after []xpaxos.Execution
		h.Do(func() { after = replica.Executions() })
		if len(after) < len(before[p]) {
			t.Fatalf("%s recovered %d executions, had acknowledged %d", p, len(after), len(before[p]))
		}
		for k := range before[p] {
			if before[p][k].String() != after[k].String() {
				t.Fatalf("%s diverged at execution %d: %s vs %s", p, k, before[p][k], after[k])
			}
		}
	}
}

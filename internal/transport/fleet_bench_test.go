package transport_test

import (
	"fmt"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/fleet"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/transport"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// newFleetTCPCluster builds a sharded fleet on real TCP hosts: every
// process runs one fleet.Fleet of `shards` XPaxos groups, leaders
// staggered across the leadable processes, all of a peer pair's
// traffic multiplexed over the host's single connection. With delay >
// 0 every peer link runs through a latencyProxy adding that one-way
// latency per hop. Returned replicas are indexed [shard][process];
// leaders[s] is shard s's initial leader.
func newFleetTCPCluster(tb testing.TB, cfg ids.Config, auth crypto.Authenticator,
	shards, window, batch int, delay, heartbeat time.Duration) (
	map[ids.ProcessID]*transport.Host, map[int]map[ids.ProcessID]*xpaxos.Replica,
	[]ids.ProcessID, func()) {
	tb.Helper()
	leadable := cfg.N - cfg.Q() + 1
	views := make([]uint64, shards)
	leaders := make([]ids.ProcessID, shards)
	replicas := make(map[int]map[ids.ProcessID]*xpaxos.Replica, shards)
	for s := 0; s < shards; s++ {
		p := ids.ProcessID(s%leadable + 1)
		v, ok := xpaxos.FirstViewLedBy(cfg, p)
		if !ok {
			tb.Fatalf("no view led by %s", p)
		}
		views[s], leaders[s] = v, p
		replicas[s] = make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	}
	hosts := make(map[ids.ProcessID]*transport.Host, cfg.N)
	var proxies []*latencyProxy
	for _, p := range cfg.All() {
		p := p
		fl := fleet.New(fleet.Options{
			Shards: shards,
			NewShard: func(s int) runtime.Node {
				opts := core.DefaultNodeOptions()
				opts.HeartbeatPeriod = heartbeat
				// FD sized for the injected RTT, as in the window sweep: a
				// full window of slots queues behind the link, and suspicion
				// mid-benchmark would measure view change, not the fleet.
				opts.FD.BaseTimeout = 2 * time.Second
				opts.FD.MaxTimeout = 4 * time.Second
				node, replica := xpaxos.NewQSNode(xpaxos.Options{
					InitialView: views[s],
					BatchSize:   batch,
					Window:      window,
				}, opts)
				replicas[s][p] = replica
				return node
			},
		})
		host, err := transport.NewHost(transport.Config{Self: p, System: cfg, Auth: auth, Seed: int64(p)}, fl)
		if err != nil {
			tb.Fatalf("NewHost(%s): %v", p, err)
		}
		hosts[p] = host
	}
	for _, p := range cfg.All() {
		for _, q := range cfg.All() {
			if p == q {
				continue
			}
			addr := hosts[q].Addr()
			if delay > 0 {
				px := newLatencyProxy(tb, addr, delay)
				proxies = append(proxies, px)
				addr = px.Addr()
			}
			hosts[p].SetPeerAddr(q, addr)
		}
	}
	shutdown := func() {
		for _, h := range hosts {
			h.Close()
		}
		for _, px := range proxies {
			px.Close()
		}
	}
	return hosts, replicas, leaders, shutdown
}

// BenchmarkFleetThroughput measures aggregate committed req/s as the
// fleet widens over the same four processes — the tentpole's scaling
// claim. The regime is the latency-hiding one sharding targets on this
// box: cheap (HMAC) authenticators and an emulated 4 ms RTT, so a
// single group at window 16 is bounded by slots-in-flight × RTT, and
// each added shard contributes its own independent commit window (and
// a staggered leader), multiplying the aggregate in-flight depth. All
// shard traffic rides the host's one connection per peer pair. It is
// one of the four `make bench-smoke` gates: 4 shards below 1.5× one
// group means the shards have stopped committing independently
// (serialized windows, cross-shard interference, or a mux regression).
func BenchmarkFleetThroughput(b *testing.B) {
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("fleet-bench"))
	reqs := make(map[int]float64) // shards → req/s of its last, longest run
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			hosts, replicas, leaders, shutdown := newFleetTCPCluster(b, cfg, auth, shards, 16, 1, benchOneWayDelay, 0)
			defer shutdown()
			b.ResetTimer()
			counts := make([]uint64, shards)
			for i := 0; i < b.N; i++ {
				s := i % shards
				counts[s]++
				seq := counts[s]
				lead := leaders[s]
				rep := replicas[s][lead]
				hosts[lead].Do(func() {
					rep.Submit(&wire.Request{Client: uint64(100 + s), Seq: seq, Op: []byte("set k v")})
				})
			}
			deadline := time.Now().Add(120 * time.Second)
			for s := 0; s < shards; s++ {
				lead, rep, want := leaders[s], replicas[s][leaders[s]], counts[s]
				for {
					var exec uint64
					hosts[lead].Do(func() { exec = rep.LastExecuted() })
					if exec >= want {
						break
					}
					if time.Now().After(deadline) {
						b.Fatalf("shard %d stalled: executed %d of %d", s, exec, want)
					}
					time.Sleep(time.Millisecond)
				}
			}
			b.StopTimer()
			reqs[shards] = float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(reqs[shards], "req/s")
		})
	}
	requireSpeedup(b, "4 shards over 1 shard", reqs[4], reqs[1], 1.5)
}

// TestFleetSharesOneConnectionPerPeer pins the transport-muxing
// acceptance criterion: a 4-shard fleet commits traffic on every shard
// while each host keeps exactly one outbound connection per peer —
// n-1 dialed, n-1 accepted — because every shard's frames ride the
// same wire inside ShardEnvelopes.
func TestFleetSharesOneConnectionPerPeer(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("fleet-conns"))
	const shards, perShard = 4, 3
	// Heartbeats on: every process sends to every other (across all four
	// shards), so each host must end up with exactly one dialed and one
	// accepted connection per peer — not one per shard per peer.
	hosts, replicas, leaders, shutdown := newFleetTCPCluster(t, cfg, auth, shards, 8, 1, 0, 25*time.Millisecond)
	defer shutdown()

	for s := 0; s < shards; s++ {
		lead, rep := leaders[s], replicas[s][leaders[s]]
		for i := 1; i <= perShard; i++ {
			seq := uint64(i)
			hosts[lead].Do(func() {
				rep.Submit(&wire.Request{Client: uint64(100 + s), Seq: seq, Op: []byte("set k v")})
			})
		}
	}
	for s := 0; s < shards; s++ {
		lead, rep := leaders[s], replicas[s][leaders[s]]
		ok := waitFor(t, 30*time.Second, func() bool {
			var exec uint64
			hosts[lead].Do(func() { exec = rep.LastExecuted() })
			return exec >= perShard
		})
		if !ok {
			t.Fatalf("shard %d never committed its workload", s)
		}
	}
	// A writer ticks its dial counter only once its lazy dial completes,
	// which under load can trail the commits above: wait, with a bound,
	// for every host to reach n-1 both ways, then require exactly n-1.
	want := int64(cfg.N - 1)
	waitFor(t, 10*time.Second, func() bool {
		for _, p := range cfg.All() {
			m := hosts[p].Metrics()
			if m.Counter("transport.conns.dialed") < want || m.Counter("transport.conns.accepted") < want {
				return false
			}
		}
		return true
	})
	for _, p := range cfg.All() {
		m := hosts[p].Metrics()
		if got := m.Counter("transport.conns.dialed"); got != want {
			t.Errorf("%s dialed %d connections for %d shards, want %d (one per peer)", p, got, shards, want)
		}
		if got := m.Counter("transport.conns.accepted"); got != want {
			t.Errorf("%s accepted %d connections for %d shards, want %d (one per peer)", p, got, shards, want)
		}
	}
}

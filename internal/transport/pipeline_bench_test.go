package transport_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/transport"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// benchOneWayDelay is the per-hop latency the window sweep injects
// between peers. Pipelining is a latency-hiding optimization: on bare
// loopback there is nothing to hide (RTT ~0, and on a small box the
// commit path is crypto-CPU-bound either way), so the sweep emulates a
// LAN/datacenter link — real TCP stack, frames delayed in a userspace
// proxy — which is the regime the window targets.
const benchOneWayDelay = 2 * time.Millisecond

// latencyProxy forwards TCP connections to a backend, delaying every
// chunk by a fixed one-way latency in each direction. Bandwidth is not
// constrained: reads continue while earlier chunks wait to be
// delivered, so the added latency is constant rather than cumulative.
type latencyProxy struct {
	ln    net.Listener
	delay time.Duration

	mu    sync.Mutex
	conns []net.Conn
	done  bool
}

func newLatencyProxy(tb testing.TB, target string, delay time.Duration) *latencyProxy {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatalf("proxy listen: %v", err)
	}
	px := &latencyProxy{ln: ln, delay: delay}
	go px.accept(target)
	return px
}

func (px *latencyProxy) Addr() string { return px.ln.Addr().String() }

func (px *latencyProxy) accept(target string) {
	for {
		in, err := px.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", target)
		if err != nil {
			in.Close()
			continue
		}
		if !px.track(in, out) {
			return
		}
		go px.pump(out, in)
		go px.pump(in, out)
	}
}

// track registers the connection pair for Close, or refuses it if the
// proxy is already shut down.
func (px *latencyProxy) track(in, out net.Conn) bool {
	px.mu.Lock()
	defer px.mu.Unlock()
	if px.done {
		in.Close()
		out.Close()
		return false
	}
	px.conns = append(px.conns, in, out)
	return true
}

// pump copies src to dst, holding each chunk for the configured delay.
func (px *latencyProxy) pump(dst, src net.Conn) {
	type chunk struct {
		data []byte
		due  time.Time
	}
	ch := make(chan chunk, 4096)
	go func() {
		defer close(ch)
		for {
			buf := make([]byte, 32*1024)
			n, err := src.Read(buf)
			if n > 0 {
				ch <- chunk{data: buf[:n], due: time.Now().Add(px.delay)}
			}
			if err != nil {
				return
			}
		}
	}()
	for c := range ch {
		if d := time.Until(c.due); d > 0 {
			time.Sleep(d)
		}
		if _, err := dst.Write(c.data); err != nil {
			break
		}
	}
	// Propagate EOF so the backend sees the close promptly; the reader
	// side exits on its own read error.
	if tc, ok := dst.(*net.TCPConn); ok {
		tc.CloseWrite()
	} else {
		dst.Close()
	}
}

func (px *latencyProxy) Close() {
	px.mu.Lock()
	px.done = true
	conns := px.conns
	px.conns = nil
	px.mu.Unlock()
	px.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// newWindowedTCPCluster builds an XPaxos cluster on real TCP hosts with
// the given commit window and ingress batch size. With delay > 0 every
// peer link is routed through a latencyProxy adding that one-way
// latency per hop. onExec, if set, observes executions at the initial
// leader p1.
func newWindowedTCPCluster(tb testing.TB, cfg ids.Config, auth crypto.Authenticator,
	window, batch int, delay time.Duration, onExec func(xpaxos.Execution)) (
	map[ids.ProcessID]*transport.Host, map[ids.ProcessID]*xpaxos.Replica, func()) {
	tb.Helper()
	hosts := make(map[ids.ProcessID]*transport.Host, cfg.N)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	var proxies []*latencyProxy
	for _, p := range cfg.All() {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		// Size the failure detector for the injected RTT: a deep window
		// queues a full window of slots behind the link, so the tail
		// slot's commit legitimately takes window×(crypto+hop) — far past
		// the 40 ms LAN default. A production deployment tunes the FD the
		// same way; suspicion mid-benchmark would measure view change,
		// not the pipeline.
		opts.FD.BaseTimeout = 2 * time.Second
		opts.FD.MaxTimeout = 4 * time.Second
		xopts := xpaxos.Options{BatchSize: batch, Window: window}
		if p == 1 {
			xopts.OnExecute = onExec
		}
		node, replica := xpaxos.NewQSNode(xopts, opts)
		host, err := transport.NewHost(transport.Config{Self: p, System: cfg, Auth: auth, Seed: int64(p)}, node)
		if err != nil {
			tb.Fatalf("NewHost(%s): %v", p, err)
		}
		hosts[p] = host
		replicas[p] = replica
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
	return hosts, replicas, shutdown
}

// BenchmarkXPaxosPipelinedThroughput sweeps the leader's commit window
// over the Ed25519 TCP path with an emulated 4 ms RTT (see
// benchOneWayDelay) and BatchSize 1, so slots == requests and the
// measured req/s isolates the window's latency hiding: at window 1 the
// leader runs in lockstep, one RTT per slot; at deeper windows slot
// round trips overlap until the path is crypto-bound. It is one of the
// four `make bench-smoke` gates: window 16 below window 1 means the
// pipeline has degraded to lockstep.
func BenchmarkXPaxosPipelinedThroughput(b *testing.B) {
	cfg := ids.MustConfig(4, 1)
	ring, err := crypto.NewEd25519Ring(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make(map[int]float64) // window → req/s of its last, longest run
	for _, w := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			hosts, replicas, shutdown := newWindowedTCPCluster(b, cfg, ring, w, 1, benchOneWayDelay, nil)
			defer shutdown()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				seq := uint64(i)
				hosts[1].Do(func() {
					replicas[1].Submit(&wire.Request{Client: 1, Seq: seq, Op: []byte("set k v")})
				})
			}
			deadline := time.Now().Add(120 * time.Second)
			for {
				var exec uint64
				hosts[1].Do(func() { exec = replicas[1].LastExecuted() })
				if exec >= uint64(b.N) {
					break
				}
				if time.Now().After(deadline) {
					b.Fatalf("pipeline stalled: executed %d of %d", exec, b.N)
				}
				time.Sleep(time.Millisecond)
			}
			b.StopTimer()
			reqs[w] = float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(reqs[w], "req/s")
		})
	}
	requireSpeedup(b, "window 16 over window 1", reqs[16], reqs[1], 1)
}

// requireSpeedup fails the sweep that calls it unless scaled reaches
// min × base req/s. A side that -bench filtered out never ran and reads
// 0; the comparison is then skipped.
func requireSpeedup(b *testing.B, what string, scaled, base, min float64) {
	b.Helper()
	if scaled == 0 || base == 0 {
		return
	}
	b.Logf("%s: %.0f / %.0f req/s = %.2fx (gate: >= %.1fx)", what, scaled, base, scaled/base, min)
	if scaled < min*base {
		b.Fatalf("%s: %.2fx, below the %.1fx gate", what, scaled/base, min)
	}
}

// TestWindowedLeaderConcurrentIngress is the -race storm for the
// windowed leader: many client goroutines hammer Submit through the
// host's event loop while the window gate opens and closes under them.
// Every request must execute exactly once, on the leader and on a
// follower.
func TestWindowedLeaderConcurrentIngress(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("storm-secret"))
	executed := 0 // mutated and read only on p1's event loop
	hosts, replicas, shutdown := newWindowedTCPCluster(t, cfg, auth, 4, 4, 0,
		func(xpaxos.Execution) { executed++ })
	defer shutdown()

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		client := uint64(g + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perClient; i++ {
				seq := uint64(i)
				hosts[1].Do(func() {
					replicas[1].Submit(&wire.Request{
						Client: client,
						Seq:    seq,
						Op:     []byte(fmt.Sprintf("set c%d-%d v", client, seq)),
					})
				})
			}
		}()
	}
	wg.Wait()

	const want = clients * perClient
	ok := waitFor(t, 30*time.Second, func() bool {
		var done int
		hosts[1].Do(func() { done = executed })
		return done == want
	})
	if !ok {
		var done int
		hosts[1].Do(func() { done = executed })
		t.Fatalf("leader executed %d of %d requests", done, want)
	}
	// Followers converge to the same log height.
	var leaderExec uint64
	hosts[1].Do(func() { leaderExec = replicas[1].LastExecuted() })
	ok = waitFor(t, 10*time.Second, func() bool {
		var exec uint64
		hosts[2].Do(func() { exec = replicas[2].LastExecuted() })
		return exec >= leaderExec
	})
	if !ok {
		t.Fatal("follower did not reach the leader's executed height")
	}
}

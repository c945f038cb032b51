package transport_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/fleet"
	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/transport"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// newQSCluster launches n quorum-selection Hosts on ephemeral localhost
// ports and wires all addresses.
func newQSCluster(t *testing.T, n, f int, hb time.Duration) (map[ids.ProcessID]*transport.Host, map[ids.ProcessID]*core.Node) {
	t.Helper()
	cfg := ids.MustConfig(n, f)
	auth := crypto.NewHMACRing(cfg, []byte("cluster-secret"))
	hosts := make(map[ids.ProcessID]*transport.Host, n)
	nodes := make(map[ids.ProcessID]*core.Node, n)
	for _, p := range cfg.All() {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = hb
		node := core.NewNode(opts)
		host, err := transport.NewHost(transport.Config{
			Self:   p,
			System: cfg,
			Auth:   auth,
			Seed:   int64(p),
		}, node)
		if err != nil {
			t.Fatalf("NewHost(%s): %v", p, err)
		}
		hosts[p] = host
		nodes[p] = node
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
	return hosts, nodes
}

func waitFor(t *testing.T, timeout time.Duration, pred func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if pred() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return pred()
}

func TestQuorumSelectionOverTCP(t *testing.T) {
	hosts, nodes := newQSCluster(t, 4, 1, 0)
	// Inject a suspicion at p1 (on its event loop) and wait for
	// agreement on {p1,p3,p4} everywhere.
	hosts[1].Do(func() {
		nodes[1].Selector.OnSuspected(ids.NewProcSet(2))
	})
	want := ids.NewQuorum([]ids.ProcessID{1, 3, 4})
	ok := waitFor(t, 5*time.Second, func() bool {
		for p, n := range nodes {
			agreed := false
			hosts[p].Do(func() { agreed = n.CurrentQuorum().Equal(want) })
			if !agreed {
				return false
			}
		}
		return true
	})
	if !ok {
		for p, n := range nodes {
			var q ids.Quorum
			hosts[p].Do(func() { q = n.CurrentQuorum() })
			t.Logf("%s: %s", p, q)
		}
		t.Fatal("quorum selection did not converge over TCP")
	}
}

func TestXPaxosOverTCP(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("cluster-secret"))
	hosts := make(map[ids.ProcessID]*transport.Host, cfg.N)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	for _, p := range cfg.All() {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		node, replica := xpaxos.NewQSNode(xpaxos.Options{}, opts)
		host, err := transport.NewHost(transport.Config{Self: p, System: cfg, Auth: auth, Seed: int64(p)}, node)
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
	defer func() {
		for _, h := range hosts {
			h.Close()
		}
	}()

	for i := 1; i <= 3; i++ {
		seq := uint64(i)
		hosts[1].Do(func() {
			replicas[1].Submit(&wire.Request{Client: 1, Seq: seq, Op: []byte("set k v")})
		})
	}
	ok := waitFor(t, 5*time.Second, func() bool {
		for _, p := range []ids.ProcessID{1, 2, 3} {
			var exec uint64
			hosts[p].Do(func() { exec = replicas[p].LastExecuted() })
			if exec < 3 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("XPaxos over TCP did not execute the requests")
	}
}

// TestBadSignatureRejectedOverTCP plays a hostile p2 on a raw socket
// against p1, a two-shard fleet of quorum-selection nodes: a forged
// UPDATE, the same inside shard 0's envelope, and a genuine shard-0
// UPDATE relabeled to shard 1 all die where they land (fd.dropped.badsig)
// and merge nowhere, while a genuine shard-0 UPDATE sent after them on
// the same connection merges into shard 0 alone.
func TestBadSignatureRejectedOverTCP(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("cluster-secret"))
	shards := make([]*core.Node, 2)
	fl := fleet.New(fleet.Options{Shards: len(shards), NewShard: func(s int) runtime.Node {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		shards[s] = core.NewNode(opts)
		return shards[s]
	}})
	host, err := transport.NewHost(transport.Config{Self: 1, System: cfg, Auth: auth}, fl)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	// signedFor returns p3's UPDATE with row, signed under shard's domain.
	signedFor := func(shard int, row []uint64) *wire.Update {
		up := &wire.Update{Owner: 3, Row: row}
		sig, err := crypto.NewDomainAuth(auth, crypto.ShardDomain(shard)).Sign(3, up.SigBytes())
		if err != nil {
			t.Fatal(err)
		}
		up.Sig = sig
		return up
	}
	forged := &wire.Update{Owner: 3, Row: []uint64{9, 9, 9, 9}, Sig: []byte("forged")}
	frames := []wire.Message{
		forged,
		&wire.ShardEnvelope{Shard: 0, Inner: forged},
		&wire.ShardEnvelope{Shard: 1, Inner: signedFor(0, []uint64{9, 9, 9, 9})},
		&wire.ShardEnvelope{Shard: 0, Inner: signedFor(0, []uint64{0, 0, 0, 7})},
	}
	conn, err := net.Dial("tcp", host.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stream := []byte{0, 0, 0, 2} // hello: p2
	for _, m := range frames {
		frame := wire.Encode(m)
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(frame)))
		stream = append(stream, frame...)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}

	value := func(shard int, k ids.ProcessID) (v uint64) {
		host.Do(func() { v = shards[shard].Store.Value(3, k) })
		return v
	}
	if !waitFor(t, 5*time.Second, func() bool { return value(0, 4) != 0 }) {
		t.Fatal("the genuine UPDATE never merged into shard 0")
	}
	if v := value(0, 4); v != 7 {
		t.Errorf("shard 0: matrix[3][4] = %d, want the genuine UPDATE's 7", v)
	}
	for s := range shards {
		if v := value(s, 1); v != 0 {
			t.Errorf("shard %d: a rejected UPDATE merged: matrix[3][1] = %d", s, v)
		}
	}
	if v := value(1, 4); v != 0 {
		t.Errorf("shard 1 merged shard 0's UPDATE: matrix[3][4] = %d", v)
	}
	if got := host.Metrics().Counter("fd.dropped.badsig"); got != 3 {
		t.Errorf("fd.dropped.badsig = %d, want 3", got)
	}
}

// recorder is a node that records what it receives and lets a test
// send from its environment.
type recorder struct {
	env  runtime.Env
	got  []wire.Message
	from []ids.ProcessID
}

func (r *recorder) Init(env runtime.Env) { r.env = env }
func (r *recorder) Receive(from ids.ProcessID, m wire.Message) {
	r.got = append(r.got, m)
	r.from = append(r.from, from)
}

// TestEd25519DeliveryOrderMatchesSendOrder: a connection's reader
// authenticates each frame before it posts the next, so however long
// each Ed25519 check takes, the loop receives one link's frames in the
// order they were sent — signed and unsigned ones interleaved, forgeries
// dropped without reordering the rest.
func TestEd25519DeliveryOrderMatchesSendOrder(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	ring, err := crypto.NewEd25519Ring(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[ids.ProcessID]*recorder{1: {}, 2: {}}
	hosts := make(map[ids.ProcessID]*transport.Host)
	for p, node := range nodes {
		h, err := transport.NewHost(transport.Config{Self: p, System: cfg, Auth: ring}, node)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		hosts[p] = h
	}
	hosts[2].SetPeerAddr(1, hosts[1].Addr())

	const total = 300
	var want []wire.Message
	hosts[2].Do(func() {
		env := nodes[2].env
		for i := uint64(1); i <= total; i++ {
			var m wire.Message
			switch i % 5 {
			case 0:
				m = &wire.Heartbeat{From: 2, Seq: i}
			case 1:
				m = &wire.Request{Client: 7, Seq: i, Op: []byte("set k v")}
			default:
				up := &wire.Update{Owner: 2, Row: []uint64{i, 0, 0, 0}}
				runtime.Sign(env, up)
				if i%10 == 7 {
					up.Row[0]++ // forged: the signature covers another row
				}
				m = up
			}
			if up, ok := m.(*wire.Update); !ok || up.Row[0] == i {
				want = append(want, m)
			}
			env.Send(1, m)
		}
	})
	var n int
	if !waitFor(t, 10*time.Second, func() bool {
		hosts[1].Do(func() { n = len(nodes[1].got) })
		return n >= len(want)
	}) {
		t.Fatalf("received %d of %d frames", n, len(want))
	}
	var got []wire.Message
	var from []ids.ProcessID
	hosts[1].Do(func() { got, from = nodes[1].got, nodes[1].from })
	if len(got) != len(want) {
		t.Fatalf("received %d frames, want %d", len(got), len(want))
	}
	for i, m := range got {
		if !bytes.Equal(wire.Encode(m), wire.Encode(want[i])) || from[i] != 2 {
			t.Fatalf("delivery %d is %T from %s, want the %T sent at that position", i, m, from[i], want[i])
		}
	}
	if got := hosts[1].Metrics().Counter("fd.dropped.badsig"); got != total/10 {
		t.Errorf("fd.dropped.badsig = %d, want %d", got, total/10)
	}
}

func TestFollowerSelectionOverTCP(t *testing.T) {
	// Algorithm 2 (FIFO-dependent: UPDATE before FOLLOWERS) must hold
	// on real TCP links, which are FIFO per connection.
	cfg := ids.MustConfig(7, 2)
	auth := crypto.NewHMACRing(cfg, []byte("cluster-secret"))
	hosts := make(map[ids.ProcessID]*transport.Host, cfg.N)
	nodes := make(map[ids.ProcessID]*follower.Node, cfg.N)
	for _, p := range cfg.All() {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		node := follower.NewNode(opts)
		host, err := transport.NewHost(transport.Config{Self: p, System: cfg, Auth: auth, Seed: int64(p)}, node)
		if err != nil {
			t.Fatalf("NewHost(%s): %v", p, err)
		}
		hosts[p] = host
		nodes[p] = node
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

	// p3 suspects the default leader p1: the leader moves to p2 and p2
	// broadcasts a FOLLOWERS choice everyone installs.
	hosts[3].Do(func() { nodes[3].Selector.OnSuspected(ids.NewProcSet(1)) })
	ok := waitFor(t, 10*time.Second, func() bool {
		for p := range nodes {
			var leader ids.ProcessID
			var stable bool
			hosts[p].Do(func() {
				leader = nodes[p].Selector.Leader()
				stable = nodes[p].Selector.Stable()
			})
			if leader != 2 || !stable {
				return false
			}
		}
		return true
	})
	if !ok {
		for p, n := range nodes {
			var q ids.Quorum
			var leader ids.ProcessID
			hosts[p].Do(func() { q, leader = n.CurrentQuorum(), n.Selector.Leader() })
			t.Logf("%s: leader=%s quorum=%s", p, leader, q)
		}
		t.Fatal("follower selection did not converge over TCP")
	}
	// Agreement on the full quorum.
	var want ids.Quorum
	hosts[1].Do(func() { want = nodes[1].CurrentQuorum() })
	for p, n := range nodes {
		var got ids.Quorum
		hosts[p].Do(func() { got = n.CurrentQuorum() })
		if !got.Equal(want) {
			t.Errorf("%s: quorum %s, want %s", p, got, want)
		}
	}
}

func TestHostCloseIdempotent(t *testing.T) {
	hosts, _ := newQSCluster(t, 4, 1, 0)
	if err := hosts[1].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := hosts[1].Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestHostSurvivesHostileFrames(t *testing.T) {
	// Raw TCP garbage — bad hellos, oversized length prefixes,
	// undecodable frames — must neither crash the host nor disturb the
	// protocol.
	hosts, nodes := newQSCluster(t, 4, 1, 0)
	addr := hosts[1].Addr()

	send := func(data []byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.Write(data)
		conn.Close()
	}
	// Truncated hello.
	send([]byte{0x01})
	// Hello naming an invalid process.
	send([]byte{0xff, 0xff, 0xff, 0xff})
	// Valid hello (p2), then an oversized frame length.
	send([]byte{0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff})
	// Valid hello, zero-length frame.
	send([]byte{0, 0, 0, 2, 0, 0, 0, 0})
	// Valid hello, frame that does not decode.
	send([]byte{0, 0, 0, 2, 0, 0, 0, 3, 0xEE, 0x01, 0x02})

	// The host keeps working: a genuine suspicion still converges.
	hosts[1].Do(func() { nodes[1].Selector.OnSuspected(ids.NewProcSet(2)) })
	want := ids.NewQuorum([]ids.ProcessID{1, 3, 4})
	ok := waitFor(t, 5*time.Second, func() bool {
		var agreed bool
		hosts[3].Do(func() { agreed = nodes[3].CurrentQuorum().Equal(want) })
		return agreed
	})
	if !ok {
		t.Fatal("host stopped working after hostile frames")
	}
	// Each hostile connection is counted where its read loop gave up.
	reg := hosts[1].Metrics()
	counted := func() bool {
		return reg.Counter("transport.hello.invalid") == 1 &&
			reg.Counter("transport.frame.bad_length") == 2 &&
			reg.Counter("transport.decode.errors") == 1
	}
	if !waitFor(t, 5*time.Second, counted) {
		t.Errorf("hello.invalid=%d frame.bad_length=%d decode.errors=%d, want 1, 2, 1",
			reg.Counter("transport.hello.invalid"), reg.Counter("transport.frame.bad_length"),
			reg.Counter("transport.decode.errors"))
	}
}

func TestHeartbeatsOverTCP(t *testing.T) {
	hosts, nodes := newQSCluster(t, 4, 1, 50*time.Millisecond)
	// With everyone alive, no suspicions should accumulate.
	time.Sleep(500 * time.Millisecond)
	for p, n := range nodes {
		var sus ids.ProcSet
		hosts[p].Do(func() { sus = n.Detector.Suspected() })
		if !sus.Empty() {
			t.Errorf("%s suspects %s on a healthy TCP cluster", p, sus)
		}
	}
	// Kill p4: the rest must eventually suspect and exclude it.
	hosts[4].Close()
	want := ids.NewQuorum([]ids.ProcessID{1, 2, 3})
	ok := waitFor(t, 10*time.Second, func() bool {
		for _, p := range []ids.ProcessID{1, 2, 3} {
			var q ids.Quorum
			hosts[p].Do(func() { q = nodes[p].CurrentQuorum() })
			if !q.Equal(want) {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("crashed host was not excluded over TCP")
	}
}

package fleet_test

import (
	"fmt"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/fleet"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// fleetFixture is a simulated fleet cluster: every process runs one
// Fleet of `shards` XPaxos groups, each group's WAL in its own
// sub-tree of that process's MemBackend, and shard leaders staggered
// across initial views.
type fleetFixture struct {
	cfg      ids.Config
	net      *sim.Network
	fleets   map[ids.ProcessID]*fleet.Fleet
	replicas map[int]map[ids.ProcessID]*xpaxos.Replica // shard → process → replica
	backends map[ids.ProcessID]*storage.MemBackend
	leaders  []ids.ProcessID // shard → initial leader process
}

func newFleetFixture(t *testing.T, n, f, shards int, durable bool, simOpts sim.Options) *fleetFixture {
	t.Helper()
	cfg := ids.MustConfig(n, f)
	fx := &fleetFixture{
		cfg:      cfg,
		fleets:   make(map[ids.ProcessID]*fleet.Fleet, n),
		replicas: make(map[int]map[ids.ProcessID]*xpaxos.Replica, shards),
		backends: make(map[ids.ProcessID]*storage.MemBackend, n),
		leaders:  make([]ids.ProcessID, shards),
	}
	// Stagger shard leaders across the processes that can lead (the
	// heads of the lexicographic enumeration: 1..n-q+1).
	views := make([]uint64, shards)
	leadable := cfg.N - cfg.Q() + 1
	for s := 0; s < shards; s++ {
		p := ids.ProcessID(s%leadable + 1)
		v, ok := xpaxos.FirstViewLedBy(cfg, p)
		if !ok {
			t.Fatalf("no view led by %s", p)
		}
		views[s] = v
		fx.leaders[s] = p
		fx.replicas[s] = make(map[ids.ProcessID]*xpaxos.Replica, n)
	}
	if simOpts.Auth == nil {
		simOpts.Auth = crypto.NewHMACRing(cfg, []byte("fleet-test-master"))
	}
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	for _, p := range cfg.All() {
		p := p
		var backend *storage.MemBackend
		if durable {
			backend = storage.NewMemBackend()
			fx.backends[p] = backend
		}
		fl := fleet.New(fleet.Options{
			Shards: shards,
			NewShard: func(s int) runtime.Node {
				nodeOpts := core.DefaultNodeOptions()
				nodeOpts.HeartbeatPeriod = 25 * time.Millisecond
				if backend != nil {
					sub, err := storage.Sub(backend, fmt.Sprintf("shard-%d", s))
					if err != nil {
						t.Fatalf("sub backend: %v", err)
					}
					nodeOpts.Storage = sub
				}
				node, replica := xpaxos.NewQSNode(xpaxos.Options{InitialView: views[s]}, nodeOpts)
				fx.replicas[s][p] = replica
				return node
			},
		})
		fx.fleets[p] = fl
		nodes[p] = fl
	}
	fx.net = sim.NewNetwork(cfg, nodes, simOpts)
	return fx
}

// submit injects one request at the shard's current leader.
func (fx *fleetFixture) submit(shard int, client, seq uint64, op string) {
	fx.replicas[shard][fx.leaders[shard]].Submit(&wire.Request{Client: client, Seq: seq, Op: []byte(op)})
}

// TestFleetShardsCommitIndependently: every shard group commits its
// own workload, leaders land on distinct processes per the stagger,
// and traffic was envelope-multiplexed (per-shard counters moved).
func TestFleetShardsCommitIndependently(t *testing.T) {
	const shards, perShard = 2, 5
	fx := newFleetFixture(t, 4, 1, shards, false, sim.Options{})
	defer fx.net.Close()
	if fx.leaders[0] == fx.leaders[1] {
		t.Fatalf("shard leaders not staggered: both on %s", fx.leaders[0])
	}
	for s := 0; s < shards; s++ {
		for i := 1; i <= perShard; i++ {
			fx.submit(s, uint64(100+s), uint64(i), fmt.Sprintf("set s%dk%d v%d", s, i, i))
		}
	}
	fx.net.Run(2 * time.Second)
	for s := 0; s < shards; s++ {
		lead := fx.replicas[s][fx.leaders[s]]
		if got := lead.LastExecuted(); got != perShard {
			t.Errorf("shard %d leader executed %d, want %d", s, got, perShard)
		}
		// Every member of the shard's active quorum converges.
		for _, p := range lead.ActiveQuorum().Members {
			if got := fx.replicas[s][p].LastExecuted(); got != perShard {
				t.Errorf("shard %d replica %s executed %d, want %d", s, p, got, perShard)
			}
		}
		// Cross-shard isolation: shard s executed only its own ops.
		for _, e := range lead.Executions() {
			if want := fmt.Sprintf("set s%d", s); string(e.Op[:len(want)]) != want {
				t.Errorf("shard %d executed foreign op %q", s, e.Op)
			}
		}
	}
	for s := 0; s < shards; s++ {
		label := metrics.L{Key: "shard", Value: fmt.Sprintf("%d", s)}
		if got := fx.net.Metrics().LabeledCounter("fleet.shard.received", label); got == 0 {
			t.Errorf("no multiplexed frames counted for shard %d", s)
		}
	}
}

// TestFleetMisroutedFrameRejected is the satellite assertion for the
// shard-ID mutation: frames relabeled to another shard must be dropped
// and counted — signed ones at delivery, by the domain-separated check
// made under the shard they name (fd.dropped.badsig), unsigned ones
// naming a shard nobody runs at the fleet demultiplexer
// (fleet.misrouted.dropped) — and the wrong shard must execute nothing.
func TestFleetMisroutedFrameRejected(t *testing.T) {
	const shards = 2
	var fx *fleetFixture
	relabeled, evicted := 0, 0
	filter := sim.FilterFunc(func(from, to ids.ProcessID, m wire.Message, now time.Duration) sim.Verdict {
		env, ok := m.(*wire.ShardEnvelope)
		if !ok || env.Shard != 1 {
			return sim.Verdict{}
		}
		// A Byzantine relay: every shard-1 frame is relabeled, odd ones
		// to the (valid) shard 0, even ones to a shard nobody runs.
		return sim.Verdict{Mutate: func(frame []byte) []byte {
			m, err := wire.Decode(frame)
			if err != nil {
				return frame
			}
			e := m.(*wire.ShardEnvelope)
			if relabeled%2 == 0 {
				e.Shard = 0
				relabeled++
			} else {
				e.Shard = 9
				evicted++
				relabeled++
			}
			return wire.AppendEncode(frame[:0], m)
		}}
	})
	fx = newFleetFixture(t, 4, 1, shards, false, sim.Options{Filter: filter})
	defer fx.net.Close()
	for i := 1; i <= 3; i++ {
		fx.submit(1, 101, uint64(i), fmt.Sprintf("set k%d v%d", i, i))
	}
	fx.net.Run(1 * time.Second)
	if relabeled == 0 {
		t.Fatal("adversary never saw a shard-1 frame")
	}
	// The wrong shard executed nothing, anywhere.
	for _, p := range fx.cfg.All() {
		if got := fx.replicas[0][p].LastExecuted(); got != 0 {
			t.Errorf("shard 0 on %s executed %d misrouted slots", p, got)
		}
	}
	m := fx.net.Metrics()
	if got := m.Counter("fd.dropped.badsig"); got == 0 {
		t.Error("no relabeled frame died at a domain-separated signature check")
	}
	// The filter counts at send, the fleet counter at delivery, and
	// only unsigned frames (heartbeats) get that far, so the counter
	// stays short of `evicted` — but never over, and never zero.
	if got := m.Counter("fleet.misrouted.dropped"); got == 0 || got > int64(evicted) {
		t.Errorf("fleet.misrouted.dropped = %d, want 1..%d (out-of-range relabels sent)", got, evicted)
	}
}

// certReplayer sends one commit certificate to p4 inside each of the
// given shard envelopes, 100 ms apart.
type certReplayer struct {
	cert   *wire.CommitCert
	shards []uint32
}

func (r *certReplayer) Init(env runtime.Env) {
	for i, s := range r.shards {
		s := s
		env.After(time.Duration(i+1)*100*time.Millisecond, func() {
			env.Send(4, &wire.ShardEnvelope{Shard: s, Inner: r.cert})
		})
	}
}

func (*certReplayer) Receive(ids.ProcessID, wire.Message) {}

type silent struct{}

func (silent) Init(runtime.Env)                    {}
func (silent) Receive(ids.ProcessID, wire.Message) {}

// TestFleetCertificateCannotCrossShards: a CommitCert is an unsigned
// container, so nothing but the certificate check stops a shard-0
// certificate replayed inside shard 1's envelope. Both shards of p4's
// fleet run view 0 with the same leader, so the signing domain is the
// only difference between them: the certificate is rejected in shard 1
// and applied in shard 0.
func TestFleetCertificateCannotCrossShards(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	ring := crypto.NewHMACRing(cfg, []byte("fleet-test-master"))
	shard0 := crypto.NewDomainAuth(ring, crypto.ShardDomain(0))
	sign := func(m wire.Signed) {
		covered, sig := wire.Signing(m)
		s, err := shard0.Sign(m.Signer(), covered)
		if err != nil {
			t.Fatal(err)
		}
		*sig = s
	}
	prep := wire.Prepare{Leader: 1, Slot: 1, Req: wire.Request{Client: 1, Seq: 1, Op: []byte("set x 1")}}
	sign(&prep)
	cert := &wire.CommitCert{Slot: 1}
	for _, p := range []ids.ProcessID{1, 2, 3} {
		c := wire.Commit{Replica: p, Slot: 1, HasPrep: true, Prep: prep}
		sign(&c)
		cert.Commits = append(cert.Commits, c)
	}

	replicas := make(map[int]*xpaxos.Replica, 2)
	p4 := fleet.New(fleet.Options{
		Shards: 2,
		NewShard: func(s int) runtime.Node {
			nodeOpts := core.DefaultNodeOptions()
			nodeOpts.HeartbeatPeriod = 0
			node, replica := xpaxos.NewQSNode(xpaxos.Options{}, nodeOpts)
			replicas[s] = replica
			return node
		},
	})
	net := sim.NewNetwork(cfg, map[ids.ProcessID]runtime.Node{
		1: &certReplayer{cert: cert, shards: []uint32{1, 0}},
		2: silent{}, 3: silent{}, 4: p4,
	}, sim.Options{Auth: ring, Latency: sim.ConstantLatency(time.Millisecond)})
	defer net.Close()

	net.Run(150 * time.Millisecond) // the shard-1 replay only
	m := net.Metrics()
	if got := m.Counter("xpaxos.cert.rejected"); got != 1 {
		t.Errorf("after the shard-1 replay: xpaxos.cert.rejected = %d, want 1", got)
	}
	if got := replicas[1].LastExecuted(); got != 0 {
		t.Errorf("shard 1 executed %d slots from a shard-0 certificate", got)
	}
	net.Run(time.Second)
	if got := m.Counter("xpaxos.cert.applied"); got != 1 {
		t.Errorf("xpaxos.cert.applied = %d, want 1 (shard 0 only)", got)
	}
	if got := replicas[0].LastExecuted(); got != 1 {
		t.Errorf("shard 0 executed %d slots from its own certificate, want 1", got)
	}
	if got := replicas[1].LastExecuted(); got != 0 {
		t.Errorf("shard 1 executed %d slots from a shard-0 certificate", got)
	}
}

// TestFleetPerShardRecovery: acceptance-criteria pin for durability —
// after a whole-process power cut and restart, every shard recovers
// its own committed prefix from its own WAL sub-tree, independently.
func TestFleetPerShardRecovery(t *testing.T) {
	const shards, perShard = 2, 4
	fx := newFleetFixture(t, 4, 1, shards, true, sim.Options{})
	defer fx.net.Close()
	for s := 0; s < shards; s++ {
		for i := 1; i <= perShard; i++ {
			fx.submit(s, uint64(100+s), uint64(i), fmt.Sprintf("set s%dk%d v%d", s, i, i))
		}
	}
	fx.net.Run(2 * time.Second)
	victim := fx.leaders[0]
	pre := make([]uint64, shards)
	for s := 0; s < shards; s++ {
		pre[s] = fx.replicas[s][victim].LastExecuted()
		if pre[s] != perShard {
			t.Fatalf("shard %d on %s executed %d before crash, want %d", s, victim, pre[s], perShard)
		}
	}
	// Power cut: unsynced bytes in every shard's sub-tree vanish at
	// once, then the process restarts and each shard recovers from its
	// own WAL.
	fx.net.StopProcess(victim)
	fx.backends[victim].Crash()
	fx.net.RestartProcess(victim)
	fx.net.Run(3 * time.Second)
	for s := 0; s < shards; s++ {
		if got := fx.replicas[s][victim].LastExecuted(); got < pre[s] {
			t.Errorf("shard %d on %s recovered to %d, lost committed prefix %d", s, victim, got, pre[s])
		}
	}
}

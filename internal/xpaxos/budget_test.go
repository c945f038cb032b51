package xpaxos

import (
	"errors"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
	"quorumselect/internal/wire"
)

// discardBackend is a storage backend whose files accept every write
// without keeping it, so writing allocates nothing.
type discardBackend struct{}

func (discardBackend) List() ([]string, error)             { return nil, nil }
func (discardBackend) ReadFile(string) ([]byte, error)     { return nil, errors.New("no files") }
func (discardBackend) Create(string) (storage.File, error) { return discardFile{}, nil }
func (discardBackend) Rename(string, string) error         { return nil }
func (discardBackend) Remove(string) error                 { return nil }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// budgetCluster runs n=4, f=1 until slot 1 has committed everywhere in
// the quorum. p2 is durable over a discardBackend; p3's COMMIT of slot
// 1 to p2 is returned as it was delivered.
func budgetCluster(t *testing.T) (*sim.Network, map[ids.ProcessID]*Replica, *wire.Commit) {
	t.Helper()
	cfg := ids.MustConfig(4, 1)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	replicas := make(map[ids.ProcessID]*Replica, cfg.N)
	for _, p := range cfg.All() {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		if p == 2 {
			opts.Storage = discardBackend{}
		}
		nodes[p], replicas[p] = NewQSNode(Options{}, opts)
	}
	var fromP3 *wire.Commit
	capture := sim.FilterFunc(func(from, to ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
		if c, ok := m.(*wire.Commit); ok && from == 3 && to == 2 && c.Slot == 1 {
			fromP3 = c
		}
		return sim.Verdict{}
	})
	net := sim.NewNetwork(cfg, nodes, sim.Options{Filter: capture})
	t.Cleanup(func() { net.Close() })
	replicas[1].Submit(&wire.Request{Client: 7, Seq: 1, Op: []byte("set k v")})
	if !net.RunUntil(func() bool { return replicas[2].LastExecuted() >= 1 }, 10*time.Second) {
		t.Fatal("slot 1 did not execute")
	}
	if fromP3 == nil {
		t.Fatal("p3's COMMIT to p2 was not captured")
	}
	return net, replicas, fromP3
}

// TestPersistRecordAllocationBudget: in steady state, writing a
// recAccepted record of an 8-request PREPARE allocates nothing in
// xpaxos or the host — the record is encoded into the replica's buffer,
// tagged in the host's, and copied by the store. The run stays inside
// one group-commit window (fewer appends than the store's SyncEvery),
// so the store's flush timer, armed by the warm-up append, stays armed.
func TestPersistRecordAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("allocation budgets assume sync.Pool keeps what it is given")
	}
	_, replicas, _ := budgetCluster(t)
	r := replicas[2]
	prep := &wire.Prepare{Leader: 1, View: 0, Slot: 2, Req: wire.Request{Client: 7, Seq: 2, Op: []byte("set k0 v0")},
		Sig: make([]byte, 64)}
	for i := 1; i < 8; i++ {
		prep.Rest = append(prep.Rest, wire.Request{Client: uint64(7 + i), Seq: 1, Op: []byte("set k v")})
	}
	if !r.persisting() {
		t.Fatal("p2 does not persist")
	}
	r.persistSync()
	if allocs := testing.AllocsPerRun(20, func() { r.persistMessage(recAccepted, prep) }); allocs != 0 {
		t.Errorf("persisting an 8-request PREPARE: %v allocs, want 0", allocs)
	}
}

// TestMatchingCommitRendersNoSigBytes: a COMMIT whose embedded PREPARE
// equals the slot's accepted one is vouched for by a field compare —
// its signed bytes are never rendered, so handling it allocates
// nothing.
func TestMatchingCommitRendersNoSigBytes(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are unreliable under -race")
	}
	net, replicas, fromP3 := budgetCluster(t)
	r := replicas[2]
	before := net.Metrics().Counter("xpaxos.verify.memoized")
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, func() { r.Deliver(3, fromP3) }); allocs != 0 {
		t.Errorf("a COMMIT matching the accepted PREPARE: %v allocs, want 0", allocs)
	}
	if got := net.Metrics().Counter("xpaxos.verify.memoized") - before; got != runs+1 {
		t.Errorf("%d of %d matching COMMITs took the memoized check", got, runs+1)
	}
	if net.Metrics().Counter("xpaxos.detected.equivocation") != 0 {
		t.Error("a matching COMMIT was taken for equivocation")
	}
}

// slotAllocBudget is what one slot of TestSlotAllocationBudget's
// cluster allocates, all four processes together, from Submit until the
// passive replica has executed the slot too. It was 124 while each
// active replica allocated a trace holder per slot and a list per
// fresh failure-detector target, and 116 while each active replica
// kept its slot's COMMITs in a map, the leader grew the certificate
// one COMMIT at a time and listed Π to ship it, and the passive
// replica sorted the certificate's signers.
const slotAllocBudget = 105

// TestSlotAllocationBudget pins the allocations of one slot's whole
// commit path on an untraced n=4 cluster without storage: p1 proposes
// each request in its own slot, p2 and p3 accept and commit it, and p4
// executes it from the commit certificate.
func TestSlotAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("allocation budgets assume sync.Pool keeps what it is given")
	}
	cfg := ids.MustConfig(4, 1)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	replicas := make(map[ids.ProcessID]*Replica, cfg.N)
	for _, p := range cfg.All() {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		nodes[p], replicas[p] = NewQSNode(Options{BatchSize: 1}, opts)
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	t.Cleanup(func() { net.Close() })
	var seq uint64
	executed := func() bool {
		for _, r := range replicas {
			if r.LastExecuted() < seq {
				return false
			}
		}
		return true
	}
	slot := func() {
		seq++
		replicas[1].Submit(&wire.Request{Client: 7, Seq: seq, Op: []byte("set k v")})
		if !net.RunUntil(executed, net.Now()+time.Second) {
			t.Fatalf("slot %d did not execute everywhere", seq)
		}
	}
	for range 50 {
		slot()
	}
	if allocs := testing.AllocsPerRun(500, slot); allocs > slotAllocBudget {
		t.Errorf("one slot allocates %.2f times, budget %d", allocs, slotAllocBudget)
	}
}

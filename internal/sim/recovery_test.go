package sim

import (
	"bytes"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/fd"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/storage"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// durApp is a minimal host.DurableApp recording what the kernel hands
// it at recovery.
type durApp struct {
	wal       host.AppLog
	recovered [][]byte
}

func (a *durApp) Attach(runtime.Env, *fd.Detector)    {}
func (a *durApp) Deliver(ids.ProcessID, wire.Message) {}

func (a *durApp) Recover(log host.AppLog, _ []byte, records [][]byte) error {
	a.wal = log
	a.recovered = records
	return nil
}

// newDurableFDCluster builds n FD-only hosts, each with its own
// in-memory backend and recording app.
func newDurableFDCluster(t *testing.T, n int) (*Network, []*durApp) {
	t.Helper()
	cfg := ids.MustConfig(n, 1)
	apps := make([]*durApp, n+1)
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	for _, p := range cfg.All() {
		apps[p] = &durApp{}
		nodes[p] = host.New(host.Options{
			HeartbeatPeriod: 25 * time.Millisecond,
			App:             apps[p],
			Storage:         storage.NewMemBackend(),
		})
	}
	return NewNetwork(cfg, nodes, Options{Seed: 7}), apps
}

// TestRestartProcessRecoversDurableState: RestartProcess re-Inits a
// durable node, and the kernel replays the WAL records the application
// persisted before the stop.
func TestRestartProcessRecoversDurableState(t *testing.T) {
	net, apps := newDurableFDCluster(t, 4)
	defer net.Close()

	if apps[1].wal == nil {
		t.Fatal("DurableApp was not handed its log at Init")
	}
	if len(apps[1].recovered) != 0 {
		t.Fatalf("fresh node recovered %d records, want 0", len(apps[1].recovered))
	}
	if err := apps[1].wal.Append([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := apps[1].wal.Append([]byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := apps[1].wal.Sync(); err != nil {
		t.Fatal(err)
	}

	net.StopProcess(1)
	net.RestartProcess(1)
	got := apps[1].recovered
	if len(got) != 2 || !bytes.Equal(got[0], []byte("alpha")) || !bytes.Equal(got[1], []byte("beta")) {
		t.Fatalf("recovered %q, want [alpha beta]", got)
	}
}

// TestReplaceProcessRecoversXPaxos is the end-to-end recovery story on
// the simulator: an XPaxos replica commits traffic, is stopped, and a
// brand-new node constructed over the same backend — the only surviving
// state — comes back with the identical execution history, a usable
// suspicion matrix, and keeps executing new traffic.
func TestReplaceProcessRecoversXPaxos(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	backends := make(map[ids.ProcessID]*storage.MemBackend, cfg.N)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	newNode := func(p ids.ProcessID) (runtime.Node, *xpaxos.Replica) {
		opts := core.DefaultNodeOptions()
		opts.Storage = backends[p]
		return xpaxos.NewQSNode(xpaxos.Options{CheckpointInterval: 8}, opts)
	}
	for _, p := range cfg.All() {
		backends[p] = storage.NewMemBackend()
		nodes[p], replicas[p] = newNode(p)
	}
	net := NewNetwork(cfg, nodes, Options{Seed: 11})
	defer net.Close()

	const rounds = 10
	for i := 1; i <= rounds; i++ {
		seq := uint64(i)
		net.At(time.Duration(i)*40*time.Millisecond, func() {
			replicas[1].Submit(&wire.Request{Client: 1, Seq: seq, Op: []byte("set k v")})
		})
	}
	if !net.RunUntil(func() bool { return replicas[2].LastExecuted() >= rounds }, 10*time.Second) {
		t.Fatalf("p2 executed %d of %d before timeout", replicas[2].LastExecuted(), rounds)
	}
	before := replicas[2].Executions()
	view := replicas[2].View()

	// Power-loss crash: drop unsynced writes, stop, and resurrect a
	// brand-new process whose only inheritance is the backend.
	backends[2].Crash()
	net.StopProcess(2)
	node2, rep2 := newNode(2)
	replicas[2] = rep2
	net.ReplaceProcess(2, node2)

	after := rep2.Executions()
	if len(after) < len(before) {
		t.Fatalf("recovered %d executions, want at least %d", len(after), len(before))
	}
	for i := range before {
		if before[i].Slot != after[i].Slot || !bytes.Equal(before[i].Result, after[i].Result) {
			t.Fatalf("execution %d diverged after recovery: %+v vs %+v", i, before[i], after[i])
		}
	}
	if rep2.View() < view {
		t.Fatalf("recovered view %d, had acknowledged view %d", rep2.View(), view)
	}

	// The resurrected replica must keep up with new traffic.
	for i := 1; i <= rounds; i++ {
		seq := uint64(i)
		net.At(net.Now()+time.Duration(i)*40*time.Millisecond, func() {
			replicas[1].Submit(&wire.Request{Client: 2, Seq: seq, Op: []byte("set k2 v2")})
		})
	}
	if !net.RunUntil(func() bool { return rep2.LastExecuted() >= 2*rounds }, net.Now()+15*time.Second) {
		t.Fatalf("recovered replica stalled at %d of %d", rep2.LastExecuted(), 2*rounds)
	}
}

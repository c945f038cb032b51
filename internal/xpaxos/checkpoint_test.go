package xpaxos_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

func TestKVMachineSnapshotRoundTrip(t *testing.T) {
	kv := xpaxos.NewKVMachine()
	kv.Apply([]byte("set alpha 1"))
	kv.Apply([]byte("set beta two words"))
	kv.Apply([]byte("append alpha 23"))
	snap := kv.Snapshot()

	restored := xpaxos.NewKVMachine()
	restored.Apply([]byte("set garbage x"))
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if v, _ := restored.Get("alpha"); v != "123" {
		t.Errorf("alpha = %q, want 123", v)
	}
	if v, _ := restored.Get("beta"); v != "two words" {
		t.Errorf("beta = %q", v)
	}
	if _, ok := restored.Get("garbage"); ok {
		t.Error("Restore did not replace prior state")
	}
	// Determinism: identical state → identical bytes.
	if !bytes.Equal(snap, restored.Snapshot()) {
		t.Error("snapshot not deterministic for identical state")
	}
}

func TestKVMachineRestoreRejectsCorrupt(t *testing.T) {
	kv := xpaxos.NewKVMachine()
	for _, data := range [][]byte{
		{1, 2, 3},
		append(kv.Snapshot(), 0xff), // trailing bytes
	} {
		if err := xpaxos.NewKVMachine().Restore(data); err == nil {
			t.Errorf("corrupt snapshot %v accepted", data)
		}
	}
}

// TestSnapshotBytesPinned pins, for a fixed run, the bytes a view change
// and a restart read back: the checkpoint blob (client table, then the
// KVMachine snapshot) and the application section of the durable
// snapshot (view, proposal cursor, checkpoint, history). A format change
// must update them on purpose.
func TestSnapshotBytesPinned(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	for _, p := range cfg.All() {
		node, r := xpaxos.NewQSNode(xpaxos.Options{CheckpointInterval: 4}, quietNodeOpts())
		nodes[p], replicas[p] = node, r
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	// Clients 7 and 9 alternate; the checkpoint at slot 4 holds
	// {7: 2, 9: 2} and {a: 13, b: 2}.
	for i, op := range []string{"set a 1", "set b 2", "append a 3", "get a", "del b", "set c 4"} {
		replicas[1].Submit(req(uint64(7+2*(i%2)), uint64(i/2+1), op))
	}
	if !net.RunUntil(func() bool { return replicas[2].LastExecuted() >= 6 }, 10*time.Second) {
		t.Fatal("the six requests did not execute")
	}
	const (
		blob = "00000002" + "0000000000000007" + "0000000000000002" + "0000000000000009" + "0000000000000002" +
			"00000019" + "00000002" + "00000001" + "61" + "00000002" + "3133" + "00000001" + "62" + "00000001" + "32"
		history = "00000006" +
			"0000000000000001000000000000000700000000000000010000000773657420612031000000024f4b" +
			"0000000000000002000000000000000900000000000000010000000773657420622032000000024f4b" +
			"0000000000000003000000000000000700000000000000020000000a617070656e6420612033000000024f4b" +
			"000000000000000400000000000000090000000000000002000000056765742061000000023133" +
			"0000000000000005000000000000000700000000000000030000000564656c2062000000024f4b" +
			"0000000000000006000000000000000900000000000000030000000773657420632034000000024f4b"
		// view 0, proposal cursor 1 (a follower proposes nothing),
		// checkpoint slot 4, the blob, the history.
		durable = "0000000000000000" + "0000000000000001" + "0000000000000004" + "00000041" + blob + history
	)
	r := replicas[2]
	if got := hex.EncodeToString(r.CheckpointBlob()); got != blob {
		t.Errorf("checkpoint blob\n got %s\nwant %s", got, blob)
	}
	if got := hex.EncodeToString(r.DurableSnapshot()); got != durable {
		t.Errorf("durable snapshot\n got %s\nwant %s", got, durable)
	}
}

func TestCheckpointingBoundsLog(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	const interval = 10
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	for _, p := range cfg.All() {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		node, r := xpaxos.NewQSNode(xpaxos.Options{CheckpointInterval: interval}, opts)
		replicas[p] = r
		nodes[p] = node
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	const requests = 55
	for i := 1; i <= requests; i++ {
		replicas[1].Submit(req(1, uint64(i), fmt.Sprintf("set k%d v%d", i, i)))
	}
	if !net.RunUntil(func() bool { return replicas[2].LastExecuted() >= requests }, 30*time.Second) {
		t.Fatal("requests did not execute")
	}
	for _, p := range []ids.ProcessID{1, 2, 3} {
		r := replicas[p]
		if r.CheckpointSlot() != 50 {
			t.Errorf("%s: checkpoint slot = %d, want 50", p, r.CheckpointSlot())
		}
		// Only the 5 slots above the checkpoint are retained.
		if r.LogSize() > requests-50 {
			t.Errorf("%s: log size = %d after checkpointing, want ≤ %d", p, r.LogSize(), requests-50)
		}
	}
	// Without checkpointing the log retains everything.
	noCkpt := make(map[ids.ProcessID]runtime.Node, cfg.N)
	var first *xpaxos.Replica
	for _, p := range cfg.All() {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		node, r := xpaxos.NewQSNode(xpaxos.Options{}, opts)
		if first == nil {
			first = r
		}
		noCkpt[p] = node
	}
	net2 := sim.NewNetwork(cfg, noCkpt, sim.Options{})
	for i := 1; i <= requests; i++ {
		first.Submit(req(1, uint64(i), "op"))
	}
	net2.RunUntil(func() bool { return first.LastExecuted() >= requests }, 30*time.Second)
	if first.LogSize() != requests {
		t.Errorf("without checkpointing log size = %d, want %d", first.LogSize(), requests)
	}
}

func TestCheckpointCatchUpAfterViewChange(t *testing.T) {
	// Slots 1..20 execute and are checkpointed (interval 5) among
	// {1,2,3}; the log below slot 20 is gone. p3 crashes. The view
	// change can only hand p4 the checkpoint snapshot — p4 must restore
	// it and then execute new slots on top.
	cfg := ids.MustConfig(4, 1)
	machines := make(map[ids.ProcessID]*xpaxos.KVMachine, cfg.N)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	wrappers := make(map[ids.ProcessID]*crashable, cfg.N)
	for _, p := range cfg.All() {
		kv := xpaxos.NewKVMachine()
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 20 * time.Millisecond
		node, r := xpaxos.NewQSNode(xpaxos.Options{SM: kv, CheckpointInterval: 5}, opts)
		machines[p] = kv
		replicas[p] = r
		wrappers[p] = &crashable{inner: node}
		nodes[p] = wrappers[p]
	}
	dropCerts := sim.FilterFunc(func(_, _ ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
		return sim.Verdict{Drop: m.Kind() == wire.TypeCommitCert}
	})
	net := sim.NewNetwork(cfg, nodes, sim.Options{
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Filter:  dropCerts,
	})
	for i := 1; i <= 20; i++ {
		replicas[1].Submit(req(1, uint64(i), fmt.Sprintf("set k%d v%d", i, i)))
	}
	if !net.RunUntil(func() bool { return replicas[1].LastExecuted() >= 20 }, 30*time.Second) {
		t.Fatal("setup: slots did not execute")
	}
	if replicas[1].CheckpointSlot() != 20 {
		t.Fatalf("setup: checkpoint slot = %d", replicas[1].CheckpointSlot())
	}

	wrappers[3].crashed = true
	replicas[1].Submit(req(1, 21, "set k21 v21"))
	ok := net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 2, 4} {
			if replicas[p].LastExecuted() < 21 {
				return false
			}
		}
		return true
	}, 30*time.Second)
	if !ok {
		for p, r := range replicas {
			t.Logf("%s: exec=%d ckpt=%d view=%d quorum=%s",
				p, r.LastExecuted(), r.CheckpointSlot(), r.View(), r.ActiveQuorum())
		}
		t.Fatal("newcomer did not catch up from the checkpoint")
	}
	// p4's state machine must hold the pre-checkpoint keys it never saw
	// as requests.
	for _, key := range []string{"k1", "k13", "k20", "k21"} {
		want, _ := machines[1].Get(key)
		got, ok := machines[4].Get(key)
		if !ok || got != want {
			t.Errorf("p4[%s] = %q (%v), want %q", key, got, ok, want)
		}
	}
	// Duplicate suppression survived the restore.
	replicas[1].Submit(req(1, 21, "set k21 duplicate"))
	net.Run(net.Now() + time.Second)
	if v, _ := machines[1].Get("k21"); v != "v21" {
		t.Errorf("duplicate re-executed after checkpoint restore: k21 = %q", v)
	}
}

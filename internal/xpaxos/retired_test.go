package xpaxos_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// TestCommittedSlotReleasesCommits: once a slot commits, its round
// state keeps no COMMITs. A late COMMIT agreeing with the slot's
// prepare is dropped; a late one embedding a different prepare still
// proves the leader equivocated.
func TestCommittedSlotReleasesCommits(t *testing.T) {
	var fromP3 *wire.Commit
	capture := sim.FilterFunc(func(from, to ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
		if c, ok := m.(*wire.Commit); ok && from == 3 && to == 2 && c.Slot == 1 {
			fromP3 = c
		}
		return sim.Verdict{}
	})
	fx := newQSFixture(t, 4, 1, quietNodeOpts(), sim.Options{Filter: capture}, ids.NewProcSet(), nil)
	fx.replicas[1].Submit(req(7, 1, "set k v"))
	fx.net.Run(time.Second)
	for _, p := range []ids.ProcessID{1, 2, 3} {
		if r := fx.replicas[p]; r.LastExecuted() != 1 || r.CommitsHeld(1) != 0 {
			t.Fatalf("%s: executed %d, holds %d COMMITs for slot 1; want 1 and 0",
				p, r.LastExecuted(), r.CommitsHeld(1))
		}
	}
	if fromP3 == nil {
		t.Fatal("p3's COMMIT to p2 was not captured")
	}

	p2 := fx.nodes[2]
	p2.Receive(3, fromP3)
	if held := fx.replicas[2].CommitsHeld(1); held != 0 {
		t.Errorf("a late matching COMMIT was stored: %d held", held)
	}
	if p2.Detector.IsDetected(1) || fx.net.Metrics().Counter("xpaxos.detected.equivocation") != 0 {
		t.Fatal("a late matching COMMIT was taken for equivocation")
	}

	conflicting := *fromP3
	conflicting.Prep.Req.Op = []byte("set k forged")
	p2.Receive(3, &conflicting)
	if fx.net.Metrics().Counter("xpaxos.detected.equivocation") != 1 {
		t.Error("a late conflicting COMMIT raised no xpaxos.detected.equivocation")
	}
	if !p2.Detector.IsDetected(1) {
		t.Error("a late conflicting COMMIT did not detect the leader")
	}
	// The detection may already have moved p2 to a new view, which
	// drops the round state (-1).
	if held := fx.replicas[2].CommitsHeld(1); held > 0 {
		t.Errorf("a late conflicting COMMIT was stored: %d held", held)
	}
}

// TestExecutionsSurviveRecoveryAndMutation: Executions returns exactly
// what the replica executed — with a retried request skipped — before
// and after a crash recovery from its WAL, and the values it returns
// belong to the caller: changing them changes neither a later call nor
// the durable snapshot.
func TestExecutionsSurviveRecoveryAndMutation(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	backends := make(map[ids.ProcessID]*storage.MemBackend, cfg.N)
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	var observed []xpaxos.Execution // p2's executions, as OnExecute saw them
	newNode := func(p ids.ProcessID) (runtime.Node, *xpaxos.Replica) {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		opts.Storage = backends[p]
		xo := xpaxos.Options{CheckpointInterval: 4}
		if p == 2 {
			xo.OnExecute = func(e xpaxos.Execution) {
				e.Op, e.Result = bytes.Clone(e.Op), bytes.Clone(e.Result)
				observed = append(observed, e)
			}
		}
		return xpaxos.NewQSNode(xo, opts)
	}
	for _, p := range cfg.All() {
		backends[p] = storage.NewMemBackend()
		nodes[p], replicas[p] = newNode(p)
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{Seed: 3})
	defer net.Close()
	ops := []string{"set a 1", "append a 2", "get a", "set b 3", "del a", "get b"}
	for i, op := range ops {
		replicas[1].Submit(req(5, uint64(i+1), op))
	}
	replicas[1].Submit(req(5, 2, "append a 2")) // a retry: its slot executes nothing
	if !net.RunUntil(func() bool { return replicas[2].LastExecuted() >= 7 }, 10*time.Second) {
		t.Fatalf("p2 executed %d slots, want 7", replicas[2].LastExecuted())
	}
	if len(observed) != len(ops) {
		t.Fatalf("p2 executed %d requests, want %d", len(observed), len(ops))
	}
	same := func(what string, got []xpaxos.Execution) {
		t.Helper()
		if len(got) != len(observed) {
			t.Fatalf("%s: %d executions, want %d", what, len(got), len(observed))
		}
		for i := range got {
			g, w := got[i], observed[i]
			if g.Slot != w.Slot || g.Client != w.Client || g.Seq != w.Seq ||
				!bytes.Equal(g.Op, w.Op) || !bytes.Equal(g.Result, w.Result) {
				t.Fatalf("%s: execution %d is %+v, executed %+v", what, i, g, w)
			}
		}
	}
	same("live", replicas[2].Executions())

	snapshot := replicas[2].DurableSnapshot()
	h := replicas[2].Executions()
	h[0].Op[0], h[0].Result[0] = 'X', 'X'
	h[0].Op = append(h[0].Op, " and more"...)
	h[1].Slot = 99
	same("after mutating a returned history", replicas[2].Executions())
	if !reflect.DeepEqual(replicas[2].DurableSnapshot(), snapshot) {
		t.Error("mutating a returned history changed the durable snapshot")
	}

	// Slots 1–4 come back from the durable snapshot, 5–7 from the WAL
	// tail; the replay reports nothing to OnExecute.
	backends[2].Crash()
	net.StopProcess(2)
	node2, rep2 := newNode(2)
	net.ReplaceProcess(2, node2)
	if rep2.LastExecuted() != 7 || rep2.CheckpointSlot() != 4 {
		t.Fatalf("recovered to slot %d with checkpoint %d, want 7 and 4", rep2.LastExecuted(), rep2.CheckpointSlot())
	}
	same("recovered", rep2.Executions())
}

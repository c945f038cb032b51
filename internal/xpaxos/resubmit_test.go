package xpaxos_test

import (
	"fmt"
	"testing"
	"time"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// count returns how many times h executed (client, seq), and the slot of
// the last one.
func count(h []xpaxos.Execution, client, seq uint64) (n int, slot uint64) {
	for _, e := range h {
		if e.Client == client && e.Seq == seq {
			n, slot = n+1, e.Slot
		}
	}
	return n, slot
}

// TestLeaderCrashResubmitsForwarded: requests a follower forwarded to a
// leader that then crashed execute in the next view without any client
// retry, each exactly once. One forwarded request (x) was already
// proposed before the crash and reaches the new view through the merged
// log; it must keep its slot and not get a second one.
func TestLeaderCrashResubmitsForwarded(t *testing.T) {
	const k = 5
	const xClient, lostClient = 30, 31
	reps := make(map[ids.ProcessID]*xpaxos.Replica)
	cut := false // drop everything p1 sends p3
	c := cluster.New(ids.MustConfig(4, 1), 1, func(at cluster.Site) cluster.Member {
		node, rep := xpaxos.NewQSNode(xpaxos.Options{}, core.DefaultNodeOptions())
		reps[at.Proc] = rep
		return cluster.Member{Node: node, Submit: rep.Submit, History: rep.Executions, IsLeader: rep.IsLeader}
	}, sim.Options{Seed: 1, Latency: cluster.LAN,
		Filter: sim.FilterFunc(func(from, to ids.ProcessID, _ wire.Message, _ time.Duration) sim.Verdict {
			return sim.Verdict{Drop: cut && from == 1 && to == 3}
		})})
	defer c.Net.Close()
	c.Net.Run(100 * time.Millisecond)

	// x: forwarded by p3, proposed by p1 and committed at p2, while p3
	// never hears from p1 again and so cannot commit it.
	cut = true
	reps[3].Submit(req(xClient, 1, "set x logged"))
	if !c.Net.RunUntil(func() bool { return reps[2].LastExecuted() >= 1 }, c.Net.Now()+time.Second) {
		t.Fatal("setup: p2 did not commit the forwarded request")
	}
	if n, _ := count(reps[3].Executions(), xClient, 1); n != 0 || reps[3].Forwarded() != 1 {
		t.Fatalf("setup: p3 executed x %d times and tracks %d forwards, want 0 and 1", n, reps[3].Forwarded())
	}
	_, xSlot := count(reps[2].Executions(), xClient, 1)

	// The leader crashes; p3 forwards k requests to it before anyone
	// installs a new view. Nobody retries them.
	c.Crash(1, false)
	for i := 1; i <= k; i++ {
		reps[3].Submit(req(lostClient, uint64(i), fmt.Sprintf("set k%d v%d", i, i)))
	}
	quorum := []ids.ProcessID{2, 3, 4}
	executedAll := func() bool {
		for _, p := range quorum {
			for i := 1; i <= k; i++ {
				if n, _ := count(reps[p].Executions(), lostClient, uint64(i)); n == 0 {
					return false
				}
			}
		}
		return true
	}
	if !c.Net.RunUntil(executedAll, c.Net.Now()+2*time.Second) {
		for _, p := range quorum {
			r := reps[p]
			t.Logf("%s: view=%d quorum=%s executed=%v", p, r.View(), r.ActiveQuorum(), r.Executions())
		}
		t.Fatalf("the %d requests forwarded to the crashed leader did not execute within 2s", k)
	}
	c.Net.Run(c.Net.Now() + 200*time.Millisecond) // let the last certificates land

	for _, p := range quorum {
		r := reps[p]
		if got := r.ActiveQuorum(); !ids.NewQuorum(got.Members).Equal(ids.NewQuorum(quorum)) {
			t.Fatalf("%s: active quorum %s, want %v", p, got, quorum)
		}
		h := r.Executions()
		for i := 1; i <= k; i++ {
			if n, _ := count(h, lostClient, uint64(i)); n != 1 {
				t.Errorf("%s executed request %d %d times, want once", p, i, n)
			}
		}
		if n, slot := count(h, xClient, 1); n != 1 || slot != xSlot {
			t.Errorf("%s executed x %d times (last at slot %d), want once at slot %d", p, n, slot, xSlot)
		}
		if f := r.Forwarded(); f != 0 {
			t.Errorf("%s still tracks %d forwarded requests after they executed", p, f)
		}
	}
	if err := c.HistoriesAgree(0); err != nil {
		t.Fatal(err)
	}
	reg := c.Net.Metrics()
	if got := reg.Counter("xpaxos.forward.resubmitted"); got != k {
		t.Errorf("xpaxos.forward.resubmitted = %d, want %d (the lost requests, not x)", got, k)
	}
	if got := reg.Counter("xpaxos.executed.duplicate"); got != 0 {
		t.Errorf("xpaxos.executed.duplicate = %d, want 0", got)
	}
}

// TestDuplicateSubmitExecutesOnce: a request submitted twice to the
// leader before it executes takes two slots, but every replica runs it
// once — the execute-time half of exactly-once.
func TestDuplicateSubmitExecutesOnce(t *testing.T) {
	fx := newQSFixture(t, 4, 1, quietNodeOpts(), sim.Options{}, ids.NewProcSet(), nil)
	fx.replicas[1].Submit(req(3, 1, "append d x"))
	fx.replicas[1].Submit(req(3, 1, "append d x")) // the first has not executed yet
	fx.net.Run(time.Second)
	for p, r := range fx.replicas {
		if r.LastExecuted() != 2 {
			t.Errorf("%s reached slot %d, want 2 (both copies commit)", p, r.LastExecuted())
		}
		if n, slot := count(r.Executions(), 3, 1); n != 1 || slot != 1 {
			t.Errorf("%s executed the request %d times (last at slot %d), want once at slot 1", p, n, slot)
		}
	}
	if got := fx.net.Metrics().Counter("xpaxos.executed.duplicate"); got != 4 {
		t.Errorf("xpaxos.executed.duplicate = %d, want 4 (one skip per replica)", got)
	}
}

// TestInflightCountMatchesScan checks the maintained in-flight count
// against a scan of the round state after every simulator step, through
// a saturated window, reordered links and a view change.
func TestInflightCountMatchesScan(t *testing.T) {
	const window = 4
	c := newBatchClusterOpts(t, 4, 1, xpaxos.Options{BatchSize: 1, Window: window},
		core.DefaultNodeOptions(), sim.Options{Seed: 3, Latency: cluster.LAN, AllowReorder: true})
	c.submitRange(1, 30)
	c.net.At(50*time.Millisecond, func() { c.net.SetFilter(dropFrom{p: 2}) })
	c.net.At(time.Second, func() { c.submitRange(31, 60) })
	peak := 0
	for c.net.Now() < 3*time.Second && c.net.Step() {
		for p, r := range c.replicas {
			if got, want := r.Inflight(), r.InflightScan(); got != want {
				t.Fatalf("%s at %s: in-flight count %d, scan %d", p, c.net.Now(), got, want)
			}
		}
		if c.net.Now() < 50*time.Millisecond {
			peak = max(peak, c.replicas[1].Inflight())
		}
	}
	if peak != window {
		t.Errorf("leader's peak in-flight before the fault %d, want the window %d", peak, window)
	}
	if c.replicas[1].ViewChanges() == 0 {
		t.Error("no view change happened; the test exercised none")
	}
	if n := len(c.replicas[1].Executions()); n != 60 {
		t.Errorf("leader executed %d of 60 requests", n)
	}
}

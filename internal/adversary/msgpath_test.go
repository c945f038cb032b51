package adversary_test

import (
	goruntime "runtime"
	"testing"
	"time"

	"quorumselect/internal/adversary"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

// The allocation budgets of one simulated UPDATE delivery at n=64, f=21
// — the unit of work the select-scale workload is made of. A forced
// quorum change costs the owner's broadcast to all 64 processes plus
// one forward of the changed row by each of the 63 others to its
// f+1 = 22 ring successors: 64 + 63·22 = 1450 deliveries (4097 while
// every forward went to all 63 peers). The budgets are pinned here, in
// tier-1, so the message path cannot quietly grow its per-message glue
// back: before the handle/sizing work a delivery that merged nothing
// cost 34 allocations.
const (
	// f+1 at n=64, f=21: how many ring successors a changed row is
	// forwarded to.
	forwardFanout = 21 + 1
	// The decoder's reader, message, row and signature; the pool box
	// the frame is recycled in. The signature is checked against the
	// bytes that arrived, so no SigBytes.
	noMergeBudget = 5
	// The same plus the merge's bookkeeping and 22 forwarded copies. In
	// this test nothing is ever recycled (the forwards stay in flight),
	// so every copy pays for its encoder, a fresh event and a fresh pool
	// buffer grown past its initial 512 bytes — 5 allocations, which a
	// running system amortises away (BenchmarkQuorumChurn reports ~8 per
	// delivery all in); the budget is that worst case plus headroom for
	// the merge: 22·5 + 24 = 134.
	mergeForwardBudget = forwardFanout*5 + 24
	// A whole churn game, everything included, per delivery.
	churnBudget = 10
)

// deliverUpdates queues len(rows) UPDATEs from p2 at p1, all arriving
// at the same instant ahead of anything they cause, and returns the
// n=64 network stepped up to the first of them.
func deliverUpdates(t *testing.T, rows [][]uint64) *sim.Network {
	t.Helper()
	net, _ := newCoreNet(t, 64, 21)
	net.Run(10 * time.Millisecond)
	for _, row := range rows {
		net.Env(2).Send(1, &wire.Update{Owner: 2, Row: row, Sig: []byte{0}})
	}
	return net
}

func TestUpdateDeliveryAllocationBudgets(t *testing.T) {
	if raceDetector {
		t.Skip("allocation budgets assume sync.Pool keeps what it is given")
	}
	const runs = 50

	// Nothing to merge: an all-zero row.
	rows := make([][]uint64, runs+1)
	for i := range rows {
		rows[i] = make([]uint64, 64)
	}
	net := deliverUpdates(t, rows)
	before := net.Metrics().Counter("msg.delivered.total")
	if allocs := testing.AllocsPerRun(runs, func() { net.Step() }); allocs > noMergeBudget {
		t.Errorf("delivering an n=64 UPDATE that merges nothing: %v allocs, budget %d", allocs, noMergeBudget)
	}
	if got := net.Metrics().Counter("msg.delivered.total") - before; got != runs+1 {
		t.Fatalf("stepped %d deliveries, want %d", got, runs+1)
	}
	if net.Metrics().Counter("suspicion.update.merged") != 0 {
		t.Fatal("the no-merge updates merged something")
	}

	// Every update raises one cell, so each merges and is forwarded to
	// p1's 22 ring successors, p2…p23.
	for i := range rows {
		rows[i] = make([]uint64, 64)
		rows[i][40] = uint64(i + 1) // p2 suspects p41, ever more recently
	}
	net = deliverUpdates(t, rows)
	if allocs := testing.AllocsPerRun(runs, func() { net.Step() }); allocs > mergeForwardBudget {
		t.Errorf("delivering an n=64 UPDATE that merges and forwards to %d successors: %v allocs, budget %d",
			forwardFanout, allocs, mergeForwardBudget)
	}
	if got := net.Metrics().Counter("suspicion.update.forwarded"); got != runs+1 {
		t.Fatalf("%d updates were forwarded, want %d", got, runs+1)
	}
	// Each of the runs+1 updates is one send from p2 plus 22 forwards
	// from p1: (50+1)·23 = 1173.
	if got := net.Metrics().Counter("msg.sent.UPDATE"); got != (runs+1)*(1+forwardFanout) {
		t.Fatalf("%d UPDATE transmissions, want %d", got, (runs+1)*(1+forwardFanout))
	}
}

// TestChurnAllocationsPerDelivery pins the running average: a Theorem 4
// churn game at n=64, where events and frames are recycled as they are
// in the benchmark, stays under churnBudget allocations per delivered
// message (34 before; ~8 now).
func TestChurnAllocationsPerDelivery(t *testing.T) {
	if raceDetector {
		t.Skip("allocation budgets assume sync.Pool keeps what it is given")
	}
	net, nodes := newCoreNet(t, 64, 21)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	res := adversary.RunQuorumChurn(net, nodes, adversary.ChurnOptions{
		F: 21, Picker: adversary.PickRandom, Seed: 1, MaxInjections: 4,
	})
	goruntime.ReadMemStats(&after)
	if !res.Agreement || res.Injections != 4 {
		t.Fatalf("agreement=%v after %d injections", res.Agreement, res.Injections)
	}
	// Each injection costs at least the owner's 64-way broadcast plus 63
	// forwards to 22 successors: 4·(64 + 63·22) = 5800.
	deliveries := net.Metrics().Counter("msg.delivered.total")
	if deliveries < 4*(64+63*forwardFanout) {
		t.Fatalf("only %d deliveries for 4 injections at n=64", deliveries)
	}
	perDelivery := float64(after.Mallocs-before.Mallocs) / float64(deliveries)
	t.Logf("%d deliveries, %.2f allocs each", deliveries, perDelivery)
	if perDelivery > churnBudget {
		t.Errorf("%.2f allocations per delivery, budget %d", perDelivery, churnBudget)
	}
}

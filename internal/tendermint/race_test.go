package tendermint_test

import (
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/tendermint"
	"quorumselect/internal/wire"
)

// newSlowFDFixture builds a consensus network whose failure detector is
// deliberately slower than the round timer, so the round-rotation
// machinery can be observed without selection interfering.
func newSlowFDFixture(t *testing.T, n, f int, simOpts sim.Options) *fixture {
	t.Helper()
	cfg := ids.MustConfig(n, f)
	fx := &fixture{
		nodes:    make(map[ids.ProcessID]*core.Node, n),
		replicas: make(map[ids.ProcessID]*tendermint.Replica, n),
	}
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	for _, p := range cfg.All() {
		nodeOpts := core.DefaultNodeOptions()
		nodeOpts.HeartbeatPeriod = 0
		nodeOpts.FD.BaseTimeout = 5 * time.Second // >> the 250ms round timeout
		node, r := tendermint.NewQSNode(tendermint.Options{}, nodeOpts)
		fx.nodes[p] = node
		fx.replicas[p] = r
		nodes[p] = node
	}
	fx.net = sim.NewNetwork(cfg, nodes, simOpts)
	return fx
}

// TestRoundTimeoutRace exercises the any-round decision machinery: p1's
// inbound precommits are delayed past the round timeout, so p1 moves to
// round 1 while the others decide in round 0. When the delayed round-0
// precommits finally arrive, p1 must decide from the round-0
// certificate anyway — without this, the system deadlocks (p1 waits in
// round 1 for votes the decided replicas will never send).
func TestRoundTimeoutRace(t *testing.T) {
	delay := sim.FilterFunc(func(from, to ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
		if to == 1 && m.Kind() == wire.TypeTMPrecommit {
			return sim.Verdict{Delay: 400 * time.Millisecond} // > the 250ms round timeout
		}
		return sim.Verdict{}
	})
	fx := newSlowFDFixture(t, 4, 1, sim.Options{
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Filter:  delay,
	})
	fx.replicas[1].Submit(req(1, 1, "set race value"))

	// The others decide promptly in round 0 — they have p1's precommit
	// (outbound from p1 is not delayed).
	ok := fx.net.RunUntil(func() bool {
		return fx.replicas[2].LastExecuted() >= 1 && fx.replicas[3].LastExecuted() >= 1
	}, 10*time.Second)
	if !ok {
		t.Fatal("undelayed replicas did not decide in round 0")
	}
	if fx.replicas[1].LastExecuted() != 0 {
		t.Fatal("setup failed: p1 decided before its precommits arrived")
	}

	// p1 times out into a later round, then the late round-0 votes land
	// and it decides the same value.
	ok = fx.net.RunUntil(func() bool { return fx.replicas[1].LastExecuted() >= 1 }, 10*time.Second)
	if !ok {
		t.Fatalf("p1 stuck at height %d round %d — any-round certificate not applied",
			fx.replicas[1].Height(), fx.replicas[1].Round())
	}
	a, b := fx.replicas[1].Executions()[0], fx.replicas[2].Executions()[0]
	if string(a.Op) != string(b.Op) || a.Slot != b.Slot {
		t.Fatalf("decisions diverge: %v vs %v", a, b)
	}
	if fx.net.Metrics().Counter("tendermint.round.timeout") == 0 {
		t.Error("scenario did not actually exercise a round timeout")
	}
}

// TestLockedProposerReproposesLockedValue: a replica that precommitted
// in a timed-out round must re-propose the locked value when it becomes
// proposer in a later round, not a fresh mempool entry.
func TestLockedProposerReproposesLockedValue(t *testing.T) {
	// Delay all precommits between everyone: every replica locks in
	// round 0 (full prevotes arrive), nobody completes precommits, all
	// time out into round 1 whose proposer must re-propose the same
	// value; when the delayed round-0 precommits arrive, the height
	// decides that value.
	delay := sim.FilterFunc(func(from, to ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
		if m.Kind() == wire.TypeTMPrecommit {
			return sim.Verdict{Delay: 400 * time.Millisecond}
		}
		return sim.Verdict{}
	})
	fx := newSlowFDFixture(t, 4, 1, sim.Options{
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Filter:  delay,
	})
	// Two pending requests: if locking were broken, round 1 might
	// propose the second one.
	fx.replicas[1].Submit(req(1, 1, "first"))
	fx.replicas[1].Submit(req(1, 2, "second"))
	ok := fx.net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 2, 3} {
			if fx.replicas[p].LastExecuted() < 2 {
				return false
			}
		}
		return true
	}, 30*time.Second)
	if !ok {
		for p, r := range fx.replicas {
			t.Logf("%s: h=%d r=%d dec=%d", p, r.Height(), r.Round(), r.LastExecuted())
		}
		t.Fatal("heights did not decide under delayed precommits")
	}
	// Height 1 decided "first" everywhere (no value swap mid-height).
	for _, p := range []ids.ProcessID{1, 2, 3} {
		d := fx.replicas[p].Executions()
		if string(d[0].Op) != "first" || string(d[1].Op) != "second" {
			t.Fatalf("%s decided out of order: %q then %q", p, d[0].Op, d[1].Op)
		}
	}
}

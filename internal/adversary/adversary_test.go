package adversary_test

import (
	"testing"
	"time"

	"quorumselect/internal/adversary"
	"quorumselect/internal/core"
	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

func newCoreNet(t testing.TB, n, f int) (*sim.Network, map[ids.ProcessID]*core.Node) {
	t.Helper()
	return newCoreNetOn(n, f, sim.Options{})
}

func newCoreNetOn(n, f int, simOpts sim.Options) (*sim.Network, map[ids.ProcessID]*core.Node) {
	cfg := ids.MustConfig(n, f)
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	coreNodes := make(map[ids.ProcessID]*core.Node, n)
	for _, p := range cfg.All() {
		node := core.NewNode(opts)
		coreNodes[p] = node
		nodes[p] = node
	}
	return sim.NewNetwork(cfg, nodes, simOpts), coreNodes
}

func newFollowerNet(t *testing.T, n, f int) (*sim.Network, map[ids.ProcessID]*follower.Node) {
	t.Helper()
	cfg := ids.MustConfig(n, f)
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	fNodes := make(map[ids.ProcessID]*follower.Node, n)
	for _, p := range cfg.All() {
		node := follower.NewNode(opts)
		fNodes[p] = node
		nodes[p] = node
	}
	return sim.NewNetwork(cfg, nodes, sim.Options{}), fNodes
}

func TestQuorumChurnF1(t *testing.T) {
	net, nodes := newCoreNet(t, 4, 1)
	res := adversary.RunQuorumChurn(net, nodes, adversary.ChurnOptions{F: 1})
	// f=1: the admissible pairs are (1,2) and (1,3); both cause a
	// change, so exactly 2 quorum changes in epoch 1 — which equals the
	// Theorem 3 proof bound f(f+1) and, counting the initial quorum,
	// the C(f+2,2) = 3 of Theorem 4.
	if res.QuorumsIssued != 2 {
		t.Errorf("QuorumsIssued = %d, want 2", res.QuorumsIssued)
	}
	if res.MaxPerEpoch != 2 {
		t.Errorf("MaxPerEpoch = %d, want 2", res.MaxPerEpoch)
	}
	if !res.Agreement {
		t.Error("nodes disagree after churn")
	}
	if res.Injections != 2 {
		t.Errorf("Injections = %d, want 2", res.Injections)
	}
}

func TestQuorumChurnRespectsTheorem3Bound(t *testing.T) {
	for f := 1; f <= 3; f++ {
		n := 3*f + 1
		for _, picker := range []adversary.PairPicker{
			adversary.PickLex, adversary.PickReverseLex, adversary.PickRandom,
		} {
			net, nodes := newCoreNet(t, n, f)
			res := adversary.RunQuorumChurn(net, nodes, adversary.ChurnOptions{
				F: f, Picker: picker, Seed: int64(f),
			})
			if res.MaxPerEpoch > ids.TheoremThreeBound(f) {
				t.Errorf("f=%d: per-epoch churn %d exceeds Theorem 3 bound %d",
					f, res.MaxPerEpoch, ids.TheoremThreeBound(f))
			}
			// Counting the initial quorum, the churn must also respect
			// the empirical C(f+2,2) bound the paper's simulations
			// report.
			if res.MaxPerEpoch+1 > ids.TheoremFourBound(f) {
				t.Errorf("f=%d: churn %d+1 exceeds C(f+2,2) = %d",
					f, res.MaxPerEpoch, ids.TheoremFourBound(f))
			}
			if !res.Agreement {
				t.Errorf("f=%d: no agreement after churn", f)
			}
		}
	}
}

func TestQuorumChurnAchievesLowerBoundScale(t *testing.T) {
	// The adversary must achieve Ω(f²) churn — within a small constant
	// of C(f+2,2) — or the lower-bound reproduction is broken.
	for f := 1; f <= 3; f++ {
		n := 3*f + 1
		best := 0
		for seed := int64(0); seed < 4; seed++ {
			net, nodes := newCoreNet(t, n, f)
			res := adversary.RunQuorumChurn(net, nodes, adversary.ChurnOptions{
				F: f, Picker: adversary.PickRandom, Seed: seed,
			})
			if res.MaxPerEpoch > best {
				best = res.MaxPerEpoch
			}
		}
		// At least the number of admissible pairs that stay within the
		// shrinking quorum under the lex-first rule; empirically ≥ f+1.
		if best < f+1 {
			t.Errorf("f=%d: best churn %d is below f+1 — adversary too weak", f, best)
		}
	}
}

func TestFollowerChurnRespectsTheorem9(t *testing.T) {
	for f := 1; f <= 3; f++ {
		n := 3*f + 1
		net, nodes := newFollowerNet(t, n, f)
		res := adversary.RunFollowerChurn(net, nodes, adversary.ChurnOptions{F: f})
		if res.MaxPerEpoch > ids.TheoremNineBound(f) {
			t.Errorf("f=%d: per-epoch churn %d exceeds Theorem 9 bound %d",
				f, res.MaxPerEpoch, ids.TheoremNineBound(f))
		}
		if res.QuorumsIssued > ids.CorollaryTenBound(f) {
			t.Errorf("f=%d: total churn %d exceeds Corollary 10 bound %d",
				f, res.QuorumsIssued, ids.CorollaryTenBound(f))
		}
		if !res.Agreement {
			t.Errorf("f=%d: no agreement after follower churn", f)
		}
		// The adversary achieves Ω(f) churn (leaders advance past each
		// injection until the faulty stars saturate).
		if res.QuorumsIssued < f {
			t.Errorf("f=%d: only %d quorums — adversary too weak", f, res.QuorumsIssued)
		}
	}
}

func TestFollowerChurnLinearVsQuadratic(t *testing.T) {
	// The headline comparison: for the same f, Follower Selection
	// admits only O(f) churn where Quorum Selection admits Θ(f²).
	f := 3
	n := 3*f + 1
	netQ, nodesQ := newCoreNet(t, n, f)
	resQ := adversary.RunQuorumChurn(netQ, nodesQ, adversary.ChurnOptions{F: f})
	netF, nodesF := newFollowerNet(t, n, f)
	resF := adversary.RunFollowerChurn(netF, nodesF, adversary.ChurnOptions{F: f})
	if resF.QuorumsIssued >= resQ.QuorumsIssued {
		t.Errorf("follower churn (%d) not below quorum churn (%d) at f=%d",
			resF.QuorumsIssued, resQ.QuorumsIssued, f)
	}
}

func TestFiltersDropAndDelay(t *testing.T) {
	faulty := ids.NewProcSet(2)
	crash := adversary.Crash(faulty)
	if v := crash.Filter(2, 1, &wire.Heartbeat{}, 0); !v.Drop {
		t.Error("Crash did not drop")
	}
	if v := crash.Filter(1, 2, &wire.Heartbeat{}, 0); v.Drop {
		t.Error("Crash dropped a correct sender")
	}

	ro := adversary.NewRepeatedOmission(faulty, 2)
	drops := 0
	for i := 0; i < 10; i++ {
		if ro.Filter(2, 1, &wire.Heartbeat{}, 0).Drop {
			drops++
		}
	}
	if drops != 5 {
		t.Errorf("RepeatedOmission dropped %d of 10, want 5", drops)
	}

	fixed := adversary.FixedDelay(faulty, 7*time.Millisecond)
	if v := fixed.Filter(2, 1, &wire.Heartbeat{}, 0); v.Delay != 7*time.Millisecond {
		t.Errorf("FixedDelay = %v", v.Delay)
	}

	grow := &adversary.GrowingDelay{Faulty: faulty, Slope: 10 * time.Millisecond}
	early := grow.Filter(2, 1, &wire.Heartbeat{}, time.Second).Delay
	late := grow.Filter(2, 1, &wire.Heartbeat{}, 10*time.Second).Delay
	if late <= early {
		t.Errorf("GrowingDelay not growing: %v then %v", early, late)
	}

	chained := adversary.Chain(fixed, adversary.FixedDelay(faulty, 3*time.Millisecond))
	if v := chained.Filter(2, 1, &wire.Heartbeat{}, 0); v.Delay != 10*time.Millisecond {
		t.Errorf("Chain delay = %v, want 10ms", v.Delay)
	}
	chainedDrop := adversary.Chain(fixed, crash)
	if v := chainedDrop.Filter(2, 1, &wire.Heartbeat{}, 0); !v.Drop {
		t.Error("Chain did not propagate drop")
	}
}

func TestLinkOmission(t *testing.T) {
	f := adversary.LinkOmission(map[[2]ids.ProcessID]bool{{1, 3}: true})
	if !f.Filter(1, 3, &wire.Heartbeat{}, 0).Drop {
		t.Error("targeted link not dropped")
	}
	if f.Filter(3, 1, &wire.Heartbeat{}, 0).Drop {
		t.Error("reverse link dropped")
	}
}

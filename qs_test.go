package quorumselect_test

import (
	"testing"
	"time"

	qs "quorumselect"
	"quorumselect/internal/xpaxos"
)

func TestFacadeQuickstart(t *testing.T) {
	cfg := qs.MustConfig(4, 1)
	opts := qs.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	cluster := qs.NewSimulatedCluster(cfg, qs.ClusterOptions{Node: &opts})
	cluster.Node(1).Selector.OnSuspected(qs.NewProcSet(2))
	cluster.Run(time.Second)
	quorum, ok := cluster.Agreed()
	if !ok {
		t.Fatal("cluster did not agree")
	}
	want := qs.NewQuorum([]qs.ProcessID{1, 3, 4})
	if !quorum.Equal(want) {
		t.Errorf("quorum = %s, want %s", quorum, want)
	}
}

func TestFacadeXPaxos(t *testing.T) {
	nodeOpts := qs.DefaultNodeOptions()
	nodeOpts.HeartbeatPeriod = 0
	node1, replica1 := qs.NewXPaxosNode(xpaxos.Options{}, nodeOpts)
	_ = node1
	_ = replica1
	// Full composition is exercised in internal/xpaxos tests; here we
	// check only that the facade constructors wire up.
	if replica1 == nil || node1 == nil {
		t.Fatal("facade constructors returned nil")
	}
}

func TestFacadeAuthenticators(t *testing.T) {
	cfg := qs.MustConfig(4, 1)
	h := qs.NewHMACAuth(cfg, []byte("secret"))
	sig, err := h.Sign(1, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Verify(1, []byte("m"), sig); err != nil {
		t.Errorf("HMAC verify: %v", err)
	}
	e, err := qs.NewEd25519Auth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sig, err = e.Sign(2, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(2, []byte("m"), sig); err != nil {
		t.Errorf("ed25519 verify: %v", err)
	}
}

func TestFacadeFollowerCluster(t *testing.T) {
	cfg := qs.MustConfig(7, 2)
	opts := qs.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	cluster := qs.NewSimulatedFollowerCluster(cfg, qs.ClusterOptions{Node: &opts})
	cluster.Node(3).Selector.OnSuspected(qs.NewProcSet(1))
	cluster.Run(time.Second)
	quorum, ok := cluster.Agreed()
	if !ok {
		t.Fatal("follower cluster did not agree")
	}
	if quorum.Leader != 2 {
		t.Errorf("leader = %v, want p2", quorum.Leader)
	}
}

// TestFacadeFollowerClusterQuorumSpec checks that a follower cluster
// runs on the quorum system its node options name, not on the
// configuration's threshold system.
func TestFacadeFollowerClusterQuorumSpec(t *testing.T) {
	const spec = "weighted:w=2,1,1,1,1,1,1;t=6"
	sys, err := qs.ParseQuorumSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := qs.MustConfig(7, 2)
	opts := qs.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	opts.Quorum = sys
	cluster := qs.NewSimulatedFollowerCluster(cfg, qs.ClusterOptions{Node: &opts})
	defer cluster.Close()
	for _, p := range cfg.All() {
		if got := cluster.Node(p).Selector.System().String(); got != spec {
			t.Errorf("%s runs on %s, want %s", p, got, spec)
		}
	}
}

// TestFacadeLatencyOptions runs each selector's cluster under each
// latency band. One suspicion moves every node to a new quorum within
// hops one-way delays, so agreement must come no later than hops times
// the band's upper end.
func TestFacadeLatencyOptions(t *testing.T) {
	opts := qs.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	deployments := []struct {
		name string
		hops int
		// start builds the cluster, injects the suspicion and returns
		// the simulation and its agreement on the new quorum.
		start func(qs.ClusterOptions) (*qs.Simulation, func() bool)
	}{
		{"quorum", 1, func(co qs.ClusterOptions) (*qs.Simulation, func() bool) {
			c := qs.NewSimulatedCluster(qs.MustConfig(4, 1), co)
			c.Node(1).Selector.OnSuspected(qs.NewProcSet(2))
			return &c.Simulation, func() bool { q, ok := c.Agreed(); return ok && !q.Contains(2) }
		}},
		// UPDATE to the new leader p2, then its FOLLOWERS to everyone.
		{"follower", 2, func(co qs.ClusterOptions) (*qs.Simulation, func() bool) {
			c := qs.NewSimulatedFollowerCluster(qs.MustConfig(7, 2), co)
			c.Node(3).Selector.OnSuspected(qs.NewProcSet(1))
			return &c.Simulation, func() bool { q, ok := c.Agreed(); return ok && q.Leader == 2 }
		}},
	}
	for _, d := range deployments {
		for _, co := range []qs.ClusterOptions{
			{Node: &opts},
			{Node: &opts, LatencyMin: time.Millisecond},
			{Node: &opts, LatencyMin: time.Millisecond, LatencyMax: 5 * time.Millisecond, Seed: 7},
		} {
			maxDelay := max(co.LatencyMin, co.LatencyMax)
			if maxDelay == 0 {
				maxDelay = 10 * time.Millisecond // the simulator default
			}
			s, agreed := d.start(co)
			if !s.RunUntil(agreed, time.Second) {
				t.Errorf("%s cluster, latency %v–%v: no agreement", d.name, co.LatencyMin, co.LatencyMax)
			} else if limit := time.Duration(d.hops) * maxDelay; s.Now() > limit {
				t.Errorf("%s cluster, latency %v–%v: agreed at %v, later than %v",
					d.name, co.LatencyMin, co.LatencyMax, s.Now(), limit)
			}
			s.Close()
		}
	}
}

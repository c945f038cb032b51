package xpaxos_test

import (
	"slices"
	"testing"
	"time"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/quorum"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/xpaxos"
)

// standaloneSpec is a weighted system whose minimal quorums, in
// enumeration order, are {1,2}, {1,3,4} and {2,3,4}: no threshold
// system has them.
const standaloneSpec = "weighted:w=2,2,1,1;t=4"

// TestStandaloneWalksSpecQuorums: an enumeration-baseline node built on
// a generalized NodeOptions.Quorum walks that system's minimal quorums.
// With p1 silent, every correct replica passes the two quorums holding
// p1 and settles on {2,3,4}, where requests execute.
func TestStandaloneWalksSpecQuorums(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	sys := quorum.MustParseSpec(standaloneSpec)
	if rep := quorum.Check(sys, quorum.CheckOptions{Faults: 1}); rep.Err() != nil {
		t.Fatalf("%s fails quorum.Check at f=1: %v", standaloneSpec, rep.Err())
	}
	minimal := sys.MinQuorums()
	if len(minimal) != 3 {
		t.Fatalf("setup: %s has %d minimal quorums, want 3", standaloneSpec, len(minimal))
	}
	nodes := map[ids.ProcessID]runtime.Node{1: silent{}}
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	for _, p := range []ids.ProcessID{2, 3, 4} {
		opts := quietNodeOpts()
		opts.HeartbeatPeriod = 15 * time.Millisecond
		opts.Quorum = sys
		nodes[p], replicas[p] = xpaxos.NewStandaloneNode(xpaxos.Options{}, opts)
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)})
	defer net.Close()
	want := ids.NewQuorum([]ids.ProcessID{2, 3, 4})
	if !net.RunUntil(func() bool {
		for _, r := range replicas {
			if r.ActiveQuorum().String() != want.String() {
				return false
			}
		}
		return true
	}, 10*time.Second) {
		for p, r := range replicas {
			t.Logf("%s: view=%d quorum=%s", p, r.View(), r.ActiveQuorum())
		}
		t.Fatalf("the baseline did not settle on %s", want)
	}
	for p, r := range replicas {
		if got := r.System().String(); got != sys.String() {
			t.Errorf("%s runs on %s, want %s", p, got, sys)
		}
		// The view indexes the enumeration of the spec's minimal
		// quorums; {2,3,4} is its third.
		if q := minimal[r.View()%uint64(len(minimal))]; !slices.Equal(q, want.Members) {
			t.Errorf("%s: view %d maps to %v, want %v", p, r.View(), q, want.Members)
		}
		if r.ViewChanges() != 2 {
			t.Errorf("%s performed %d view changes, want 2 (one per quorum holding p1)", p, r.ViewChanges())
		}
	}
	replicas[2].Submit(req(2, 1, "set w weighted"))
	if !net.RunUntil(func() bool {
		for _, r := range replicas {
			if r.LastExecuted() < 1 {
				return false
			}
		}
		return true
	}, net.Now()+10*time.Second) {
		t.Fatal("the request did not execute under {2,3,4}")
	}
}

// TestStandaloneCertUnderSpec: a passive enumeration-baseline replica
// built on a generalized NodeOptions.Quorum applies a commit
// certificate exactly when its signers form a quorum of that system:
// the heavy pair {1,2} (weight 4) is one, the light pair {1,3} (weight
// 3) is not.
func TestStandaloneCertUnderSpec(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	for _, row := range []struct {
		signers []ids.ProcessID
		want    bool
	}{
		{[]ids.ProcessID{1, 2}, true},
		{[]ids.ProcessID{1, 3}, false},
	} {
		auth := crypto.NewHMACRing(cfg, []byte("standalone-cert-master"))
		opts := quietNodeOpts()
		opts.Quorum = quorum.MustParseSpec(standaloneSpec)
		node, r := xpaxos.NewStandaloneNode(xpaxos.Options{}, opts)
		cert := certOf(t, auth, certPrepare(t, auth, "set x 1"), row.signers...)
		net := sim.NewNetwork(cfg, map[ids.ProcessID]runtime.Node{
			1: &certSender{cert: cert}, 2: silent{}, 3: silent{}, 4: node,
		}, sim.Options{Auth: auth})
		net.Run(time.Second)
		net.Close()
		reg := net.Metrics()
		applied, rejected := reg.Counter("xpaxos.cert.applied"), reg.Counter("xpaxos.cert.rejected")
		if got := applied == 1 && rejected == 0 && r.LastExecuted() == 1; got != row.want {
			t.Errorf("signers %v: cert.applied=%d cert.rejected=%d executed=%d, want applied=%v",
				row.signers, applied, rejected, r.LastExecuted(), row.want)
		}
		if !row.want && (rejected != 1 || r.LastExecuted() != 0) {
			t.Errorf("signers %v: cert.rejected=%d executed=%d, want one rejection and nothing executed",
				row.signers, rejected, r.LastExecuted())
		}
	}
}

package tendermint_test

import (
	"fmt"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/tendermint"
	"quorumselect/internal/wire"
)

type crashable struct {
	inner   runtime.Node
	crashed bool
}

func (c *crashable) Init(env runtime.Env) { c.inner.Init(env) }
func (c *crashable) Receive(from ids.ProcessID, m wire.Message) {
	if !c.crashed {
		c.inner.Receive(from, m)
	}
}

func TestNewMemberCatchesUpViaCertificates(t *testing.T) {
	// Heights 1..5 decide among {1,2,3} while p4 is passive. p3 then
	// crashes; selection brings p4 in, which must verify the decision
	// certificates it receives and catch up to height 6.
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("tm-test"))
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	replicas := make(map[ids.ProcessID]*tendermint.Replica, cfg.N)
	wrappers := make(map[ids.ProcessID]*crashable, cfg.N)
	for _, p := range cfg.All() {
		nodeOpts := core.DefaultNodeOptions()
		nodeOpts.HeartbeatPeriod = 20 * time.Millisecond
		node, r := tendermint.NewQSNode(tendermint.Options{}, nodeOpts)
		replicas[p] = r
		wrappers[p] = &crashable{inner: node}
		nodes[p] = wrappers[p]
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Auth:    auth,
	})
	for i := 1; i <= 5; i++ {
		replicas[1].Submit(req(1, uint64(i), fmt.Sprintf("set h%d v", i)))
	}
	if !net.RunUntil(func() bool { return replicas[1].LastExecuted() >= 5 }, 30*time.Second) {
		t.Fatal("setup: heights 1..5 did not decide")
	}
	if replicas[4].LastExecuted() != 5 {
		// The passive replica may already have caught up through the
		// proposer's lazy certificate replication — that is fine too.
		t.Logf("passive p4 at %d decisions before the crash", replicas[4].LastExecuted())
	}
	wrappers[3].crashed = true
	replicas[1].Submit(req(1, 6, "set h6 v"))
	ok := net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 2, 4} {
			if replicas[p].LastExecuted() < 6 {
				return false
			}
		}
		return true
	}, 60*time.Second)
	if !ok {
		for p, r := range replicas {
			t.Logf("%s: h=%d dec=%d active=%s", p, r.Height(), r.LastExecuted(), r.Active())
		}
		t.Fatal("new member did not catch up via certificates")
	}
	// Decision logs agree in full.
	a, b := replicas[1].Executions(), replicas[4].Executions()
	if len(b) < 6 {
		t.Fatalf("p4 decisions = %d", len(b))
	}
	for i := 0; i < 6; i++ {
		if a[i].Slot != b[i].Slot || string(a[i].Op) != string(b[i].Op) {
			t.Fatalf("decision logs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPassiveReplicaFollowsViaLazyReplication(t *testing.T) {
	// Even without any fault, the deciding proposer ships certificates
	// to the passive replica, which verifies and applies them.
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("tm-test"))
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	replicas := make(map[ids.ProcessID]*tendermint.Replica, cfg.N)
	for _, p := range cfg.All() {
		nodeOpts := core.DefaultNodeOptions()
		nodeOpts.HeartbeatPeriod = 0
		node, r := tendermint.NewQSNode(tendermint.Options{}, nodeOpts)
		replicas[p] = r
		nodes[p] = node
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{Auth: auth})
	for i := 1; i <= 4; i++ {
		replicas[1].Submit(req(1, uint64(i), "op"))
	}
	ok := net.RunUntil(func() bool { return replicas[4].LastExecuted() >= 4 }, 30*time.Second)
	if !ok {
		t.Fatalf("passive replica decided only %d heights", replicas[4].LastExecuted())
	}
}

func TestForgedCertificatesRejected(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("tm-test"))
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	replicas := make(map[ids.ProcessID]*tendermint.Replica, cfg.N)
	for _, p := range cfg.All() {
		nodeOpts := core.DefaultNodeOptions()
		nodeOpts.HeartbeatPeriod = 0
		node, r := tendermint.NewQSNode(tendermint.Options{}, nodeOpts)
		replicas[p] = r
		nodes[p] = node
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{Auth: auth})

	sign := func(m wire.Signed, as ids.ProcessID) {
		covered, sig := wire.Signing(m)
		var err error
		if *sig, err = auth.Sign(as, covered); err != nil {
			t.Fatal(err)
		}
	}
	prop := &wire.TMProposal{Proposer: 2, Height: 1, Round: 0,
		Req: wire.Request{Client: 9, Seq: 1, Op: []byte("evil op")}}
	sign(prop, 2)
	digest := crypto.Digest(prop.SigBytes())
	vote := func(p ids.ProcessID, dig []byte) wire.TMPrecommit {
		v := wire.TMPrecommit{}
		v.Replica = p
		v.Slot = 1
		v.View = 0
		v.Digest = dig
		sign(&v, p)
		return v
	}

	tests := []struct {
		name string
		cert *wire.TMDecided
	}{
		{
			name: "too few precommits",
			cert: &wire.TMDecided{Height: 1, Round: 0, Proposal: *prop,
				Precommits: []wire.TMPrecommit{vote(2, digest), vote(4, digest)}},
		},
		{
			name: "duplicate signers",
			cert: &wire.TMDecided{Height: 1, Round: 0, Proposal: *prop,
				Precommits: []wire.TMPrecommit{vote(2, digest), vote(2, digest), vote(2, digest)}},
		},
		{
			name: "wrong digests",
			cert: &wire.TMDecided{Height: 1, Round: 0, Proposal: *prop,
				Precommits: []wire.TMPrecommit{
					vote(1, []byte("x")), vote(2, []byte("x")), vote(4, []byte("x"))}},
		},
		{
			name: "unsigned precommits",
			cert: func() *wire.TMDecided {
				a, b, c := wire.TMPrecommit{}, wire.TMPrecommit{}, wire.TMPrecommit{}
				for i, v := range []*wire.TMPrecommit{&a, &b, &c} {
					v.Replica = ids.ProcessID(i + 1)
					v.Slot = 1
					v.View = 0
					v.Digest = digest
					v.Sig = []byte("forged")
				}
				return &wire.TMDecided{Height: 1, Round: 0, Proposal: *prop,
					Precommits: []wire.TMPrecommit{a, b, c}}
			}(),
		},
		{
			name: "mislabeled height",
			cert: &wire.TMDecided{Height: 2, Round: 0, Proposal: *prop,
				Precommits: []wire.TMPrecommit{vote(1, digest), vote(2, digest), vote(4, digest)}},
		},
	}
	for _, tt := range tests {
		net.Env(2).Send(4, tt.cert)
	}
	net.Run(time.Second)
	if got := replicas[4].LastExecuted(); got != 0 {
		t.Fatalf("a forged certificate was applied: decided = %d", got)
	}

	// Control: a genuine certificate with q matching precommits applies.
	genuine := &wire.TMDecided{Height: 1, Round: 0, Proposal: *prop,
		Precommits: []wire.TMPrecommit{vote(1, digest), vote(2, digest), vote(3, digest)}}
	net.Env(2).Send(4, genuine)
	net.Run(net.Now() + time.Second)
	if got := replicas[4].LastExecuted(); got != 1 {
		t.Fatalf("genuine certificate rejected: decided = %d", got)
	}
}

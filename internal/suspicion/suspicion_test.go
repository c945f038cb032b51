package suspicion_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"quorumselect/internal/fd"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/suspicion"
	"quorumselect/internal/wire"
)

// storeNode wires a failure detector and a suspicion store together the
// way the architecture diagram (Fig 1) prescribes: network → fd →
// store.
type storeNode struct {
	env     runtime.Env
	opts    suspicion.Options
	d       *fd.Detector
	store   *suspicion.Store
	changes int
}

func (n *storeNode) Init(env runtime.Env) {
	n.env = env
	n.store = suspicion.New(env.Config(), n.opts)
	n.store.Bind(env, func() { n.changes++ })
	n.d = fd.New(fd.DefaultOptions())
	n.d.Bind(env, func(from ids.ProcessID, m wire.Message) {
		if up, ok := m.(*wire.Update); ok {
			n.store.HandleUpdate(up)
		}
	}, nil)
}

func (n *storeNode) Receive(from ids.ProcessID, m wire.Message) { n.d.Receive(from, m) }

func newStoreNet(t *testing.T, nProcs, f int, opts suspicion.Options, simOpts sim.Options) (*sim.Network, map[ids.ProcessID]*storeNode) {
	t.Helper()
	cfg := ids.MustConfig(nProcs, f)
	nodes := make(map[ids.ProcessID]runtime.Node, nProcs)
	stores := make(map[ids.ProcessID]*storeNode, nProcs)
	for _, p := range cfg.All() {
		sn := &storeNode{opts: opts}
		stores[p] = sn
		nodes[p] = sn
	}
	return sim.NewNetwork(cfg, nodes, simOpts), stores
}

func TestSuspicionPropagation(t *testing.T) {
	net, nodes := newStoreNet(t, 4, 1, suspicion.DefaultOptions(), sim.Options{})
	nodes[1].store.UpdateSuspicions(ids.NewProcSet(3))
	net.Run(time.Second)
	for p, n := range nodes {
		if got := n.store.Value(1, 3); got != 1 {
			t.Errorf("%s: matrix[1][3] = %d, want 1", p, got)
		}
		if got := n.store.Value(3, 1); got != 0 {
			t.Errorf("%s: matrix[3][1] = %d, want 0 (direction matters)", p, got)
		}
	}
}

func TestConvergenceToSameState(t *testing.T) {
	net, nodes := newStoreNet(t, 5, 2, suspicion.DefaultOptions(), sim.Options{
		Seed:    9,
		Latency: sim.UniformLatency(time.Millisecond, 40*time.Millisecond),
	})
	nodes[1].store.UpdateSuspicions(ids.NewProcSet(2, 3))
	nodes[4].store.UpdateSuspicions(ids.NewProcSet(1))
	nodes[5].store.UpdateSuspicions(ids.NewProcSet(4))
	net.Run(2 * time.Second)
	want := nodes[1].store.Snapshot()
	for p, n := range nodes {
		if got := n.store.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverged:\n got %v\nwant %v", p, got, want)
		}
	}
}

func TestForwardingDeliversThroughIndirectPaths(t *testing.T) {
	// The adversary cuts the direct link p1→p3. With forwarding
	// (Algorithm 1 line 23) p3 still learns p1's suspicions via p2/p4.
	cut := sim.FilterFunc(func(from, to ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
		return sim.Verdict{Drop: from == 1 && to == 3}
	})
	net, nodes := newStoreNet(t, 4, 1, suspicion.DefaultOptions(), sim.Options{Filter: cut})
	nodes[1].store.UpdateSuspicions(ids.NewProcSet(2))
	net.Run(time.Second)
	if got := nodes[3].store.Value(1, 2); got != 1 {
		t.Errorf("p3 did not learn p1's suspicion via forwarding: matrix[1][2] = %d", got)
	}
}

func TestNoForwardingAblation(t *testing.T) {
	// Same cut, forwarding off (E10a): p3 must NOT learn the suspicion.
	cut := sim.FilterFunc(func(from, to ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
		return sim.Verdict{Drop: from == 1 && to == 3}
	})
	net, nodes := newStoreNet(t, 4, 1, suspicion.Options{Forward: false}, sim.Options{Filter: cut})
	nodes[1].store.UpdateSuspicions(ids.NewProcSet(2))
	net.Run(time.Second)
	if got := nodes[3].store.Value(1, 2); got != 0 {
		t.Errorf("without forwarding p3 should not converge, matrix[1][2] = %d", got)
	}
}

// TestRingForwardDefeatsSelectiveOwner is the ring forward's worst case
// at the select-scale size n=64, f=21: a Byzantine owner p22 sends its
// row to exactly one correct process, p1, and the 20 other faulty
// processes, p2…p21, sit right after p1 in ring order and drop
// everything. Of p1's 22 successors only p23 is correct, and still
// every correct process must merge the row within ⌈63/22⌉+2 = 5 hops of
// the worst link delay.
func TestRingForwardDefeatsSelectiveOwner(t *testing.T) {
	const (
		n, f     = 64, 21
		owner    = ids.ProcessID(22)
		maxDelay = 10 * time.Millisecond
		hops     = (n-1+f)/(f+1) + 2
	)
	net, nodes := newStoreNet(t, n, f, suspicion.DefaultOptions(), sim.Options{
		Seed:    3,
		Latency: sim.UniformLatency(time.Millisecond, maxDelay),
	})
	faulty := ids.NewProcSet(owner)
	for p := ids.ProcessID(2); p <= 21; p++ {
		faulty.Add(p)
	}
	row := make([]uint64, n)
	row[40] = 1 // p22 suspects p41
	start := net.Now()
	net.Env(owner).Send(1, &wire.Update{Owner: owner, Row: row, Sig: []byte{0}})
	net.SetFilter(sim.FilterFunc(func(from, _ ids.ProcessID, _ wire.Message, _ time.Duration) sim.Verdict {
		return sim.Verdict{Drop: faulty.Contains(from)}
	}))
	net.Run(start + hops*maxDelay)
	for p, nd := range nodes {
		if !faulty.Contains(p) && nd.store.Value(owner, 41) != 1 {
			t.Errorf("%s has not merged %s's row %d hops of %s after the owner sent it", p, owner, hops, maxDelay)
		}
	}
	// Every process merges the row once and forwards it to its f+1
	// successors; the filter drops the faulty copies after they count.
	if got := net.Metrics().Counter("msg.sent.UPDATE"); got != 1+n*(f+1) {
		t.Errorf("%d UPDATE transmissions, want 1 + %d forwarders × %d successors", got, n, f+1)
	}
}

func TestEquivocationConverges(t *testing.T) {
	// A faulty p4 sends different rows to different processes. Max-merge
	// plus forwarding still drives all correct processes to the same
	// (pointwise max) state — the paper's §VI-C observation.
	net, nodes := newStoreNet(t, 4, 1, suspicion.DefaultOptions(), sim.Options{})
	rowA := []uint64{5, 0, 0, 0}
	rowB := []uint64{0, 7, 0, 0}
	net.Env(4).Send(1, &wire.Update{Owner: 4, Row: rowA, Sig: []byte{0}})
	net.Env(4).Send(2, &wire.Update{Owner: 4, Row: rowB, Sig: []byte{0}})
	net.Run(time.Second)
	for p, n := range nodes {
		if n.store.Value(4, 1) != 5 || n.store.Value(4, 2) != 7 {
			t.Errorf("%s: row4 = %v, want pointwise max [5 7 0 0]", p, n.store.Row(4))
		}
	}
}

func TestMergeOrderIndependence(t *testing.T) {
	// Apply the same set of updates in random orders on isolated
	// processes (forwarding off so only the injected updates matter):
	// the final matrices must agree — the CRDT law the paper's
	// "eventual consistent shared data structure" claim rests on.
	updates := []*wire.Update{
		{Owner: 1, Row: []uint64{0, 3, 0, 1}, Sig: []byte{0}},
		{Owner: 1, Row: []uint64{0, 1, 2, 0}, Sig: []byte{0}},
		{Owner: 2, Row: []uint64{4, 0, 0, 0}, Sig: []byte{0}},
		{Owner: 3, Row: []uint64{0, 0, 0, 9}, Sig: []byte{0}},
		{Owner: 2, Row: []uint64{1, 0, 5, 0}, Sig: []byte{0}},
	}
	rng := rand.New(rand.NewSource(1))
	var want [][]uint64
	for trial := 0; trial < 30; trial++ {
		net, nodes := newStoreNet(t, 4, 1, suspicion.Options{Forward: false}, sim.Options{})
		_ = net
		perm := rng.Perm(len(updates))
		for _, idx := range perm {
			nodes[1].store.HandleUpdate(updates[idx].Clone())
		}
		got := nodes[1].store.Snapshot()
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v produced different state:\n got %v\nwant %v", perm, got, want)
		}
	}
}

func TestCRDTLawsQuick(t *testing.T) {
	// quick.Check over random update batches: applying any two update
	// streams in either interleaving yields the same matrix
	// (commutativity of the max-merge join), and re-applying a whole
	// stream changes nothing (idempotence).
	cfg := ids.MustConfig(4, 1)
	makeUpdates := func(raw []uint16) []*wire.Update {
		var ups []*wire.Update
		for i := 0; i+4 < len(raw); i += 5 {
			owner := ids.ProcessID(int(raw[i])%cfg.N + 1)
			row := make([]uint64, cfg.N)
			for j := 0; j < 4; j++ {
				row[j] = uint64(raw[i+1+j]) % 8
			}
			ups = append(ups, &wire.Update{Owner: owner, Row: row, Sig: []byte{0}})
		}
		return ups
	}
	fresh := func() *suspicion.Store {
		nodes := map[ids.ProcessID]runtime.Node{}
		for _, p := range cfg.All() {
			nodes[p] = nopNode{}
		}
		net := sim.NewNetwork(cfg, nodes, sim.Options{})
		st := suspicion.New(cfg, suspicion.Options{Forward: false})
		st.Bind(net.Env(1), nil)
		return st
	}
	law := func(rawA, rawB []uint16) bool {
		a, b := makeUpdates(rawA), makeUpdates(rawB)
		s1, s2 := fresh(), fresh()
		for _, u := range a {
			s1.HandleUpdate(u.Clone())
		}
		for _, u := range b {
			s1.HandleUpdate(u.Clone())
		}
		for _, u := range b {
			s2.HandleUpdate(u.Clone())
		}
		for _, u := range a {
			s2.HandleUpdate(u.Clone())
		}
		if !reflect.DeepEqual(s1.Snapshot(), s2.Snapshot()) {
			return false
		}
		// Idempotence: replaying everything changes nothing.
		before := s1.Snapshot()
		for _, u := range append(a, b...) {
			s1.HandleUpdate(u.Clone())
		}
		return reflect.DeepEqual(before, s1.Snapshot())
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

type nopNode struct{}

func (nopNode) Init(runtime.Env)                    {}
func (nopNode) Receive(ids.ProcessID, wire.Message) {}

func TestMergeIdempotent(t *testing.T) {
	net, nodes := newStoreNet(t, 4, 1, suspicion.Options{Forward: false}, sim.Options{})
	_ = net
	up := &wire.Update{Owner: 2, Row: []uint64{1, 0, 2, 0}, Sig: []byte{0}}
	if !nodes[1].store.HandleUpdate(up.Clone()) {
		t.Fatal("first merge reported no change")
	}
	if nodes[1].store.HandleUpdate(up.Clone()) {
		t.Error("second identical merge reported change (not idempotent)")
	}
	if nodes[1].changes != 1 {
		t.Errorf("onChange fired %d times, want 1", nodes[1].changes)
	}
}

func TestMalformedUpdateIgnored(t *testing.T) {
	net, nodes := newStoreNet(t, 4, 1, suspicion.DefaultOptions(), sim.Options{})
	_ = net
	// Wrong row length.
	if nodes[1].store.HandleUpdate(&wire.Update{Owner: 2, Row: []uint64{1, 2}, Sig: []byte{0}}) {
		t.Error("short row accepted")
	}
	// Owner outside Π.
	if nodes[1].store.HandleUpdate(&wire.Update{Owner: 9, Row: make([]uint64, 4), Sig: []byte{0}}) {
		t.Error("foreign owner accepted")
	}
}

func TestSuspectGraphFigure4(t *testing.T) {
	// Reconstruct Figure 4 from suspicion entries: edges (1,2),(1,5),
	// (2,5) stamped epoch 3 and (3,4) stamped epoch 2.
	net, nodes := newStoreNet(t, 5, 2, suspicion.Options{Forward: false}, sim.Options{})
	_ = net
	st := nodes[1].store
	st.HandleUpdate(&wire.Update{Owner: 1, Row: []uint64{0, 3, 0, 0, 3}, Sig: []byte{0}})
	st.HandleUpdate(&wire.Update{Owner: 2, Row: []uint64{0, 0, 0, 0, 3}, Sig: []byte{0}})
	st.HandleUpdate(&wire.Update{Owner: 3, Row: []uint64{0, 0, 0, 2, 0}, Sig: []byte{0}})

	g2 := st.SuspectGraphAt(2)
	if g2.HasIndependentSet(3) {
		t.Error("epoch-2 graph should have no independent set of size 3")
	}
	g3 := st.SuspectGraphAt(3)
	if g3.HasEdge(3, 4) {
		t.Error("edge (3,4) should drop out at epoch 3")
	}
	set, ok := g3.FirstIndependentSet(3)
	if !ok {
		t.Fatal("epoch-3 graph should have an independent set")
	}
	want := []ids.ProcessID{1, 3, 4}
	for i := range want {
		if set[i] != want[i] {
			t.Fatalf("first IS = %v, want %v", set, want)
		}
	}
}

func TestAdvanceEpochRestampsSuspicions(t *testing.T) {
	net, nodes := newStoreNet(t, 4, 1, suspicion.DefaultOptions(), sim.Options{})
	n1 := nodes[1]
	n1.store.UpdateSuspicions(ids.NewProcSet(2))
	net.Run(time.Second)
	if n1.store.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", n1.store.Epoch())
	}
	n1.store.AdvanceEpoch()
	net.Run(net.Now() + time.Second)
	if n1.store.Epoch() != 2 {
		t.Fatalf("epoch = %d after advance", n1.store.Epoch())
	}
	// The current suspicion of p2 must be re-stamped with epoch 2 and
	// propagated.
	for p, n := range nodes {
		if got := n.store.Value(1, 2); got != 2 {
			t.Errorf("%s: matrix[1][2] = %d, want 2 after re-stamp", p, got)
		}
	}
	// The suspect graph at the new epoch still has the edge.
	if !n1.store.SuspectGraph().HasEdge(1, 2) {
		t.Error("current suspicion lost its edge after epoch advance")
	}
}

func TestObserveEpoch(t *testing.T) {
	net, nodes := newStoreNet(t, 4, 1, suspicion.DefaultOptions(), sim.Options{})
	_ = net
	st := nodes[1].store
	st.ObserveEpoch(5)
	if st.Epoch() != 5 {
		t.Errorf("epoch = %d, want 5", st.Epoch())
	}
	st.ObserveEpoch(3) // never backwards
	if st.Epoch() != 5 {
		t.Errorf("epoch moved backwards to %d", st.Epoch())
	}
}

func TestMaxEpochSeen(t *testing.T) {
	net, nodes := newStoreNet(t, 4, 1, suspicion.Options{Forward: false}, sim.Options{})
	_ = net
	st := nodes[1].store
	if st.MaxEpochSeen() != 0 {
		t.Error("fresh store MaxEpochSeen != 0")
	}
	st.HandleUpdate(&wire.Update{Owner: 2, Row: []uint64{0, 0, 6, 0}, Sig: []byte{0}})
	if st.MaxEpochSeen() != 6 {
		t.Errorf("MaxEpochSeen = %d, want 6", st.MaxEpochSeen())
	}
}

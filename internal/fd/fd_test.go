package fd_test

import (
	"bytes"
	"testing"
	"time"

	"quorumselect/internal/crypto"
	"quorumselect/internal/fd"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

// fdNode wires a Detector (and optionally a Heartbeater) into a
// simulated process and records deliveries and suspicion snapshots.
type fdNode struct {
	env       runtime.Env
	d         *fd.Detector
	hb        *fd.Heartbeater
	opts      fd.Options
	hbPeriod  time.Duration
	delivered []wire.Message
	snapshots []ids.ProcSet
}

func (n *fdNode) Init(env runtime.Env) {
	n.env = env
	n.d = fd.New(n.opts)
	n.d.Bind(env,
		func(from ids.ProcessID, m wire.Message) { n.delivered = append(n.delivered, m) },
		func(s ids.ProcSet) { n.snapshots = append(n.snapshots, s.Clone()) },
	)
	if n.hbPeriod > 0 {
		n.hb = fd.NewHeartbeater(n.d, n.hbPeriod)
		n.hb.Start(env)
	}
}

func (n *fdNode) Receive(from ids.ProcessID, m wire.Message) { n.d.Receive(from, m) }

// silentNode ignores everything (a crashed or mute process).
type silentNode struct{}

func (silentNode) Init(runtime.Env)                    {}
func (silentNode) Receive(ids.ProcessID, wire.Message) {}

func newFDNet(t *testing.T, n, f int, opts Options) (*sim.Network, map[ids.ProcessID]*fdNode) {
	t.Helper()
	cfg := ids.MustConfig(n, f)
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	fdNodes := make(map[ids.ProcessID]*fdNode, n)
	for _, p := range cfg.All() {
		if opts.silent.Contains(p) {
			nodes[p] = silentNode{}
			continue
		}
		node := &fdNode{opts: opts.fd, hbPeriod: opts.hbPeriod}
		fdNodes[p] = node
		nodes[p] = node
	}
	return sim.NewNetwork(cfg, nodes, opts.sim), fdNodes
}

type Options struct {
	fd       fd.Options
	hbPeriod time.Duration
	silent   ids.ProcSet
	sim      sim.Options
}

func defaultOpts() Options {
	return Options{fd: fd.DefaultOptions(), silent: ids.NewProcSet()}
}

// heartbeatKey expects any heartbeat from the sender.
var heartbeatKey = fd.Key{Type: wire.TypeHeartbeat}

func TestExpectationMatched(t *testing.T) {
	net, nodes := newFDNet(t, 4, 1, defaultOpts())
	n1 := nodes[1]
	n1.d.Expect("test", 2, "heartbeat", heartbeatKey)
	net.Env(2).Send(1, &wire.Heartbeat{From: 2, Seq: 1})
	net.Run(time.Second)
	if !n1.d.Suspected().Empty() {
		t.Errorf("suspicions after matched expectation: %s", n1.d.Suspected())
	}
	// The detector consumes heartbeats after matching: they carry no
	// payload for the layers above.
	if len(n1.delivered) != 0 {
		t.Errorf("delivered %d messages, want 0", len(n1.delivered))
	}
	if n1.d.PendingExpectations() != 0 {
		t.Error("matched expectation still pending")
	}
}

func TestExpectationCompleteness(t *testing.T) {
	// No message arrives: the sender must be suspected.
	net, nodes := newFDNet(t, 4, 1, defaultOpts())
	n1 := nodes[1]
	n1.d.Expect("test", 2, "commit", heartbeatKey)
	net.Run(time.Second)
	if !n1.d.IsSuspected(2) {
		t.Error("unmatched expectation did not lead to suspicion")
	}
	if n1.d.SuspicionsRaised(2) != 1 {
		t.Errorf("raised = %d, want 1", n1.d.SuspicionsRaised(2))
	}
	// The ⟨SUSPECTED, S⟩ event fired with p2 in S.
	if len(n1.snapshots) == 0 || !n1.snapshots[len(n1.snapshots)-1].Contains(2) {
		t.Errorf("SUSPECTED snapshots = %v", n1.snapshots)
	}
}

func TestLateMessageCancelsSuspicion(t *testing.T) {
	net, nodes := newFDNet(t, 4, 1, defaultOpts())
	n1 := nodes[1]
	n1.d.Expect("test", 2, "heartbeat", heartbeatKey)
	// Let the expectation expire, then deliver late.
	net.Run(fd.DefaultBaseTimeout * 2)
	if !n1.d.IsSuspected(2) {
		t.Fatal("expectation did not expire")
	}
	net.Env(2).Send(1, &wire.Heartbeat{From: 2, Seq: 1})
	net.Run(net.Now() + time.Second)
	if n1.d.IsSuspected(2) {
		t.Error("late matching message did not cancel suspicion")
	}
	if n1.d.SuspicionsCanceled(2) != 1 {
		t.Errorf("canceled = %d, want 1", n1.d.SuspicionsCanceled(2))
	}
}

func TestAdaptiveTimeoutGrows(t *testing.T) {
	// After a false suspicion the timeout doubles: a second message
	// delayed by the same amount must no longer trigger a suspicion.
	opts := defaultOpts()
	opts.sim.Latency = sim.ConstantLatency(time.Millisecond)
	net, nodes := newFDNet(t, 4, 1, opts)
	n1 := nodes[1]
	delay := fd.DefaultBaseTimeout + 10*time.Millisecond // past base, within 2× base

	n1.d.Expect("test", 2, "m1", heartbeatKey)
	net.Env(1).After(delay, func() { net.Env(2).Send(1, &wire.Heartbeat{From: 2, Seq: 1}) })
	net.Run(time.Second)
	if n1.d.SuspicionsRaised(2) != 1 {
		t.Fatalf("first delayed message: raised = %d, want 1", n1.d.SuspicionsRaised(2))
	}

	n1.d.Expect("test", 2, "m2", heartbeatKey)
	net.Env(1).After(delay, func() { net.Env(2).Send(1, &wire.Heartbeat{From: 2, Seq: 2}) })
	net.Run(net.Now() + time.Second)
	if n1.d.SuspicionsRaised(2) != 1 {
		t.Errorf("second delayed message raised a suspicion despite doubled timeout (raised=%d)",
			n1.d.SuspicionsRaised(2))
	}
}

func TestFixedTimeoutAblation(t *testing.T) {
	// With Adaptive off, the same delay keeps producing false
	// suspicions (the E10 ablation).
	opts := defaultOpts()
	opts.fd.Adaptive = false
	opts.sim.Latency = sim.ConstantLatency(time.Millisecond)
	net, nodes := newFDNet(t, 4, 1, opts)
	n1 := nodes[1]
	delay := fd.DefaultBaseTimeout + 10*time.Millisecond

	for round := 1; round <= 3; round++ {
		seq := uint64(round)
		n1.d.Expect("test", 2, "m", heartbeatKey)
		net.Env(1).After(delay, func() { net.Env(2).Send(1, &wire.Heartbeat{From: 2, Seq: seq}) })
		net.Run(net.Now() + time.Second)
	}
	if got := n1.d.SuspicionsRaised(2); got != 3 {
		t.Errorf("fixed timeout: raised = %d, want 3 (one per round)", got)
	}
}

func TestDetectedIsPermanent(t *testing.T) {
	net, nodes := newFDNet(t, 4, 1, defaultOpts())
	n1 := nodes[1]
	n1.d.Detected(3)
	if !n1.d.IsSuspected(3) || !n1.d.IsDetected(3) {
		t.Fatal("Detected did not suspect")
	}
	// Neither messages nor Cancel clear a detection.
	net.Env(3).Send(1, &wire.Heartbeat{From: 3, Seq: 1})
	net.Run(time.Second)
	n1.d.Cancel()
	if !n1.d.IsSuspected(3) {
		t.Error("detection was cleared")
	}
	// Detected is idempotent.
	n1.d.Detected(3)
	if n1.d.SuspicionsRaised(3) != 1 {
		t.Errorf("duplicate Detected incremented raised: %d", n1.d.SuspicionsRaised(3))
	}
}

func TestCancelClearsExpectationsAndSuspicions(t *testing.T) {
	net, nodes := newFDNet(t, 4, 1, defaultOpts())
	n1 := nodes[1]
	n1.d.Expect("a", 2, "x", heartbeatKey)
	n1.d.Expect("b", 3, "y", heartbeatKey)
	net.Run(time.Second)
	if !n1.d.IsSuspected(2) || !n1.d.IsSuspected(3) {
		t.Fatal("expectations did not expire")
	}
	n1.d.Cancel()
	if !n1.d.Suspected().Empty() {
		t.Errorf("Cancel left suspicions: %s", n1.d.Suspected())
	}
	if n1.d.PendingExpectations() != 0 {
		t.Error("Cancel left expectations")
	}
}

func TestCancelScope(t *testing.T) {
	net, nodes := newFDNet(t, 4, 1, defaultOpts())
	n1 := nodes[1]
	n1.d.Expect("selector", 2, "followers", heartbeatKey)
	n1.d.Expect("app", 3, "commit", heartbeatKey)
	net.Run(time.Second)
	n1.d.CancelScope("selector")
	if n1.d.IsSuspected(2) {
		t.Error("selector-scope suspicion survived CancelScope")
	}
	if !n1.d.IsSuspected(3) {
		t.Error("app-scope suspicion was cleared by foreign CancelScope")
	}
}

func TestBadSignatureDropped(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	opts := defaultOpts()
	opts.sim.Auth = crypto.NewHMACRing(cfg, []byte("secret"))
	net, nodes := newFDNet(t, 4, 1, opts)
	n1 := nodes[1]
	// An Update with a garbage signature must be dropped silently.
	net.Env(2).Send(1, &wire.Update{Owner: 2, Row: make([]uint64, 4), Sig: []byte("forged")})
	// A correctly signed one must be delivered.
	good := &wire.Update{Owner: 2, Row: make([]uint64, 4)}
	sig, err := opts.sim.Auth.Sign(2, good.SigBytes())
	if err != nil {
		t.Fatal(err)
	}
	good.Sig = sig
	net.Env(2).Send(1, good)
	net.Run(time.Second)
	if len(n1.delivered) != 1 {
		t.Fatalf("delivered %d messages, want only the correctly signed one", len(n1.delivered))
	}
	if net.Metrics().Counter("fd.dropped.badsig") != 1 {
		t.Error("bad signature not accounted")
	}
}

func TestHeartbeatAccuracy(t *testing.T) {
	// All correct: nobody is ever suspected (eventual strong accuracy,
	// trivially from the start under good conditions).
	opts := defaultOpts()
	opts.hbPeriod = 10 * time.Millisecond
	opts.sim.Latency = sim.ConstantLatency(2 * time.Millisecond)
	net, nodes := newFDNet(t, 4, 1, opts)
	net.Run(2 * time.Second)
	for p, n := range nodes {
		for _, q := range net.Config().All() {
			if n.d.SuspicionsRaised(q) != 0 {
				t.Errorf("%s suspected %s despite all-correct run", p, q)
			}
		}
	}
}

func TestHeartbeatCrashDetection(t *testing.T) {
	// p4 is silent from the start: every correct process must suspect
	// it and never cancel (permanent-in-practice detection of crash).
	opts := defaultOpts()
	opts.hbPeriod = 10 * time.Millisecond
	opts.silent = ids.NewProcSet(4)
	opts.sim.Latency = sim.ConstantLatency(2 * time.Millisecond)
	net, nodes := newFDNet(t, 4, 1, opts)
	net.Run(time.Second)
	for p, n := range nodes {
		if !n.d.IsSuspected(4) {
			t.Errorf("%s does not suspect the crashed p4", p)
		}
		if n.d.SuspicionsCanceled(4) != 0 {
			t.Errorf("%s canceled a suspicion against the crashed p4", p)
		}
	}
}

func TestHeartbeatRepeatedOmissionEventualDetection(t *testing.T) {
	// The adversary drops every second heartbeat from p2 to p1: p1 must
	// raise and cancel suspicions against p2 repeatedly (the paper's
	// eventual detection of repeated omission failures).
	var count int
	filter := sim.FilterFunc(func(from, to ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
		if from == 2 && to == 1 && fd.IsHeartbeat(m) {
			count++
			return sim.Verdict{Drop: count%2 == 1}
		}
		return sim.Verdict{}
	})
	opts := defaultOpts()
	opts.hbPeriod = 30 * time.Millisecond
	opts.fd.Adaptive = false // keep the timeout tight so each omission is seen
	opts.sim.Filter = filter
	opts.sim.Latency = sim.ConstantLatency(2 * time.Millisecond)
	net, nodes := newFDNet(t, 4, 1, opts)
	net.Run(3 * time.Second)
	n1 := nodes[1]
	if n1.d.SuspicionsRaised(2) < 3 {
		t.Errorf("raised = %d, want repeated suspicions", n1.d.SuspicionsRaised(2))
	}
	if n1.d.SuspicionsCanceled(2) < 3 {
		t.Errorf("canceled = %d, want repeated cancellations", n1.d.SuspicionsCanceled(2))
	}
}

func TestForwardedSignedMessageSatisfiesExpectation(t *testing.T) {
	// A signed message is attributed to its SIGNER, not the link-level
	// sender: a copy forwarded by a third party must satisfy an
	// expectation against the originator (the propagation Lemmas 1 and
	// 6 rely on).
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("secret"))
	opts := defaultOpts()
	opts.sim.Auth = auth
	net, nodes := newFDNet(t, 4, 1, opts)
	n1 := nodes[1]
	n1.d.Expect("test", 3, "followers from p3", fd.Key{Type: wire.TypeFollowers, A: 1})
	// p3 signs; p2 forwards it to p1 (p3 never talks to p1 directly).
	fw := &wire.Followers{Leader: 3, Epoch: 1}
	sig, err := auth.Sign(3, fw.SigBytes())
	if err != nil {
		t.Fatal(err)
	}
	fw.Sig = sig
	net.Env(2).Send(1, fw)
	net.Run(time.Second)
	if n1.d.IsSuspected(3) {
		t.Error("forwarded signed message did not satisfy the expectation against the signer")
	}
	if n1.d.PendingExpectations() != 0 {
		t.Error("expectation still pending after forwarded delivery")
	}
	// And the delivery is attributed to the signer too.
	if len(n1.delivered) != 1 {
		t.Fatalf("delivered = %d", len(n1.delivered))
	}
}

func TestExpectationAgainstForwarderNotSatisfied(t *testing.T) {
	// Conversely, a message signed by p3 but forwarded by p2 must NOT
	// satisfy an expectation against p2 — the forwarder did not
	// originate it.
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("secret"))
	opts := defaultOpts()
	opts.sim.Auth = auth
	net, nodes := newFDNet(t, 4, 1, opts)
	n1 := nodes[1]
	n1.d.Expect("test", 2, "followers signed by p2", fd.Key{Type: wire.TypeFollowers, A: 1})
	fw := &wire.Followers{Leader: 3, Epoch: 1}
	sig, err := auth.Sign(3, fw.SigBytes())
	if err != nil {
		t.Fatal(err)
	}
	fw.Sig = sig
	net.Env(2).Send(1, fw) // link sender p2, signer p3
	net.Run(time.Second)
	if !n1.d.IsSuspected(2) {
		t.Error("expectation against the forwarder was satisfied by a foreign-signed message")
	}
}

func TestDeliverWithoutExpectation(t *testing.T) {
	// Non-heartbeat messages with no matching expectation are still
	// delivered; heartbeats are consumed by the detector.
	net, nodes := newFDNet(t, 4, 1, defaultOpts())
	net.Env(2).Send(1, &wire.Request{Client: 7, Seq: 1, Op: []byte("x")})
	net.Env(2).Send(1, &wire.Heartbeat{From: 2, Seq: 5})
	net.Run(time.Second)
	if len(nodes[1].delivered) != 1 {
		t.Errorf("delivered %d messages, want 1 (the request, not the heartbeat)", len(nodes[1].delivered))
	}
	if _, ok := nodes[1].delivered[0].(*wire.Request); !ok {
		t.Errorf("delivered %T, want *wire.Request", nodes[1].delivered[0])
	}
}

// TestDeliveredStreamKeepsArrivalOrder: signatures are checked where
// frames land, so the detector hands the application exactly the
// authentic messages, in the order they arrived, each attributed to its
// signer — heartbeats consumed, forgeries dropped and counted, a
// forwarded copy attributed to its originator.
func TestDeliveredStreamKeepsArrivalOrder(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("secret"))
	signed := func(owner ids.ProcessID, stamp uint64) *wire.Update {
		up := &wire.Update{Owner: owner, Row: []uint64{stamp, 0, 0, 0}}
		sig, err := auth.Sign(owner, up.SigBytes())
		if err != nil {
			t.Fatal(err)
		}
		up.Sig = sig
		return up
	}
	opts := defaultOpts()
	opts.sim.Auth = auth
	opts.sim.Latency = sim.ConstantLatency(time.Millisecond)
	net, nodes := newFDNet(t, 4, 1, opts)
	var from []ids.ProcessID
	n1 := nodes[1]
	n1.d.Bind(n1.env, func(p ids.ProcessID, m wire.Message) {
		from = append(from, p)
		n1.delivered = append(n1.delivered, m)
	}, nil)
	var want []wire.Message
	var wantFrom []ids.ProcessID
	for i := uint64(1); i <= 5; i++ {
		own, fwd, req := signed(2, i), signed(2, 100+i), &wire.Request{Client: 9, Seq: i}
		net.Env(2).Send(1, own)
		net.Env(2).Send(1, &wire.Heartbeat{From: 2, Seq: i}) // consumed, never delivered
		net.Env(2).Send(1, &wire.Update{Owner: 3, Row: []uint64{i, 0, 0, 0}, Sig: []byte("forged")})
		net.Env(2).Send(1, req)
		// A frame p2 signed, relayed by p3: attributed to its signer.
		net.Env(3).Send(1, fwd)
		want = append(want, own, req, fwd)
		wantFrom = append(wantFrom, 2, 2, 2)
	}
	net.Run(time.Second)
	if len(n1.delivered) != len(want) {
		t.Fatalf("delivered %d messages, want %d", len(n1.delivered), len(want))
	}
	for i := range want {
		if !bytes.Equal(wire.Encode(n1.delivered[i]), wire.Encode(want[i])) || from[i] != wantFrom[i] {
			t.Fatalf("delivery %d: %T from %s, want %T from %s", i, n1.delivered[i], from[i], want[i], wantFrom[i])
		}
	}
	if got := net.Metrics().Counter("fd.dropped.badsig"); got != 5 {
		t.Errorf("forgeries counted: %d, want 5", got)
	}
}

// TestSynchronousReceiveBuildsNoQueueEntry: a message reaches the
// detector already authenticated, so receiving a signed one allocates
// nothing: the detector renders no signed bytes and queues nothing.
func TestSynchronousReceiveBuildsNoQueueEntry(t *testing.T) {
	net, nodes := newFDNet(t, 4, 1, defaultOpts())
	net.Run(time.Millisecond)
	up := &wire.Update{Owner: 2, Row: make([]uint64, 4), Sig: []byte{0}}
	d := nodes[1].d
	nodes[1].delivered = make([]wire.Message, 0, 256) // appends below never grow it
	if allocs := testing.AllocsPerRun(100, func() { d.Receive(2, up) }); allocs != 0 {
		t.Errorf("Receive of an authenticated signed message: %v allocs, want 0", allocs)
	}
	if len(nodes[1].delivered) != 101 {
		t.Fatalf("delivered %d messages, want 101", len(nodes[1].delivered))
	}
}

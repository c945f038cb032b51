package runtime_test

import (
	"testing"
	"time"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

// collector records deliveries.
type collector struct {
	env  runtime.Env
	from []ids.ProcessID
}

func (c *collector) Init(env runtime.Env) { c.env = env }
func (c *collector) Receive(from ids.ProcessID, m wire.Message) {
	c.from = append(c.from, from)
}

func newNet(t *testing.T, auth crypto.Authenticator) (*sim.Network, map[ids.ProcessID]*collector) {
	t.Helper()
	cfg := ids.MustConfig(4, 1)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	cs := make(map[ids.ProcessID]*collector, cfg.N)
	for _, p := range cfg.All() {
		c := &collector{}
		cs[p] = c
		nodes[p] = c
	}
	return sim.NewNetwork(cfg, nodes, sim.Options{Auth: auth}), cs
}

func TestBroadcastExcludeSelf(t *testing.T) {
	net, cs := newNet(t, nil)
	runtime.Broadcast(net.Env(2), &wire.Heartbeat{From: 2, Seq: 1}, false)
	net.Run(time.Second)
	if len(cs[2].from) != 0 {
		t.Error("excludeSelf broadcast delivered to sender")
	}
	for _, p := range []ids.ProcessID{1, 3, 4} {
		if len(cs[p].from) != 1 || cs[p].from[0] != 2 {
			t.Errorf("%s: deliveries = %v", p, cs[p].from)
		}
	}
}

func TestBroadcastIncludeSelf(t *testing.T) {
	net, cs := newNet(t, nil)
	runtime.Broadcast(net.Env(2), &wire.Heartbeat{From: 2, Seq: 1}, true)
	net.Run(time.Second)
	for _, p := range net.Config().All() {
		if len(cs[p].from) != 1 {
			t.Errorf("%s: deliveries = %v", p, cs[p].from)
		}
	}
}

func TestSignVerifyHelpers(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("k"))
	net, _ := newNet(t, auth)
	env := net.Env(3)

	m := &wire.Update{Owner: 3, Row: make([]uint64, 4)}
	runtime.Sign(env, m)
	if err := runtime.Verify(env, m); err != nil {
		t.Errorf("Verify after Sign: %v", err)
	}
	m.Row[0] = 9 // tamper
	if err := runtime.Verify(env, m); err == nil {
		t.Error("Verify accepted tampered message")
	}
}

func TestSignPanicsWithoutKey(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	full, err := crypto.NewEd25519Ring(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// p3's env but a keyring view holding only p1's private key.
	net, _ := newNet(t, full.View(1))
	env := net.Env(3)
	defer func() {
		if recover() == nil {
			t.Error("Sign without own key did not panic")
		}
	}()
	runtime.Sign(env, &wire.Update{Owner: 3, Row: make([]uint64, 4)})
}

// TestAuthenticate: a frame's content signature is checked against the
// bytes that arrived — a bare message under the ring, an enveloped one
// under its shard's domain — and a frame fails as undecodable, forged,
// or passes unchecked when it carries no signature.
func TestAuthenticate(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("k"))
	up := func(a crypto.Authenticator) *wire.Update {
		m := &wire.Update{Owner: 2, Row: []uint64{0, 0, 3, 0}}
		sig, err := a.Sign(2, m.SigBytes())
		if err != nil {
			t.Fatal(err)
		}
		m.Sig = sig
		return m
	}
	shard1 := crypto.NewDomainAuth(auth, crypto.ShardDomain(1))
	cases := []struct {
		name    string
		frame   []byte
		checked bool
		err     error
	}{
		{"signed", wire.Encode(up(auth)), true, nil},
		{"unsigned", wire.Encode(&wire.Heartbeat{From: 2, Seq: 1}), false, nil},
		{"forged", wire.Encode(&wire.Update{Owner: 2, Row: []uint64{0, 0, 3, 0}, Sig: []byte("x")}), true, runtime.ErrForged},
		{"enveloped", wire.Encode(&wire.ShardEnvelope{Shard: 1, Inner: up(shard1)}), true, nil},
		{"relabeled", wire.Encode(&wire.ShardEnvelope{Shard: 2, Inner: up(shard1)}), true, runtime.ErrForged},
		{"outside any domain", wire.Encode(&wire.ShardEnvelope{Shard: 1, Inner: up(auth)}), true, runtime.ErrForged},
		{"enveloped unsigned", wire.Encode(&wire.ShardEnvelope{Shard: 9, Inner: &wire.Heartbeat{From: 2, Seq: 1}}), false, nil},
	}
	for _, c := range cases {
		m, checked, err := runtime.Authenticate(auth, c.frame)
		if checked != c.checked || err != c.err || m == nil {
			t.Errorf("%s: checked=%v err=%v m=%T, want checked=%v err=%v", c.name, checked, err, m, c.checked, c.err)
		}
	}
	if _, _, err := runtime.Authenticate(auth, []byte{0xEE}); err == nil || err == runtime.ErrForged {
		t.Errorf("undecodable frame: err = %v, want a decode error", err)
	}
}

// TestUntracedHotPathIsFree: protocol events are published as they
// happen, and every commit-path stage calls the Trace helpers whether
// or not spans are on. Publishing into a full stream and tracing with spans off must
// allocate nothing.
func TestUntracedHotPathIsFree(t *testing.T) {
	const capacity = 64
	stream := obs.NewBus(capacity)
	cfg := ids.MustConfig(4, 1)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	for _, p := range cfg.All() {
		nodes[p] = &collector{}
	}
	env := sim.NewNetwork(cfg, nodes, sim.Options{Tracer: stream}).Env(1)
	for i := 0; i < capacity; i++ {
		runtime.Emit(env, obs.Event{Type: obs.TypeSuspected})
	}
	if got := testing.AllocsPerRun(100, func() {
		runtime.Emit(env, obs.Event{Type: obs.TypeSuspected, Subject: 2, Detail: "heartbeat"})
	}); got != 0 {
		t.Errorf("Publish into a full stream: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		a := runtime.TraceStart(env, "propose", wire.TraceContext{})
		a.SetSlot(1)
		runtime.TraceInstant(env, "commit.recv", a.Context())
		runtime.TraceEnd(env, a)
	}); got != 0 {
		t.Errorf("tracing with spans off: %v allocs, want 0", got)
	}
	if len(stream.Spans()) != 0 {
		t.Error("spans off recorded spans")
	}
}

package fd

import (
	"fmt"
	"math"
	"testing"
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/wire"
)

// TestKeyStringMatchesFmt: a key describes its expectation (the Detail
// of a SUSPECTED record) byte for byte as the protocols' own renderings
// did, for every type an expectation waits for, at the edges of both
// identifiers.
func TestKeyStringMatchesFmt(t *testing.T) {
	render := map[wire.Type]func(a, b uint64) string{
		wire.TypeHeartbeat: func(a, b uint64) string { return "heartbeat" },
		wire.TypeCommit:    func(a, b uint64) string { return fmt.Sprintf("COMMIT(v=%d,s=%d)", a, b) },
		wire.TypePrepare:   func(a, b uint64) string { return fmt.Sprintf("PREPARE(v=%d,s=%d)", a, b) },
		wire.TypeNewView:   func(a, b uint64) string { return fmt.Sprintf("NEW-VIEW(v=%d)", a) },
		wire.TypeFollowers: func(a, b uint64) string { return fmt.Sprintf("FOLLOWERS(epoch=%d)", a) },
	}
	for _, typ := range []wire.Type{wire.TypePBFTPrepare, wire.TypePBFTCommit} {
		render[typ] = func(a, b uint64) string { return fmt.Sprintf("%s(v=%d,s=%d)", typ, a, b) }
	}
	edges := []uint64{0, 1, 9, 10, 2658, math.MaxUint64}
	for _, typ := range keyTypes {
		want, ok := render[typ]
		if !ok {
			t.Fatalf("no rendering for %s, a type expectations wait for", typ)
		}
		for _, a := range edges {
			for _, b := range edges {
				key := keyFor(typ, a, b)
				if got := key.String(); got != want(key.A, key.B) {
					t.Errorf("%+v: String() = %q, want %q", key, got, want(key.A, key.B))
				}
			}
		}
	}
}

// TestMatchedExpectationsArmOneTimer: expectations against one sender,
// each matched within its timeout, share the detector's one timer. A
// detector that armed a timer per expectation would schedule 1,000.
func TestMatchedExpectationsArmOneTimer(t *testing.T) {
	env := newFakeEnv(ids.MustConfig(4, 1))
	d := New(DefaultOptions())
	d.Bind(env, func(ids.ProcessID, wire.Message) {}, nil)
	for s := uint64(0); s < 1000; s++ {
		d.Expect("xpaxos", 2, Key{wire.TypeCommit, 1, s})
		env.advance(10 * time.Microsecond)
		d.Receive(2, &wire.Commit{Replica: 2, View: 1, Slot: s})
	}
	if env.seq != 1 {
		t.Errorf("1,000 expectations matched in time scheduled %d timers, want 1", env.seq)
	}
	if got := env.reg.Counter("fd.expectation.matched"); got != 1000 {
		t.Errorf("matched %d expectations, want 1000", got)
	}
	env.advance(time.Second)
	if !d.Suspected().Empty() || d.PendingExpectations() != 0 {
		t.Errorf("after every match: suspected %s, %d pending", d.Suspected(), d.PendingExpectations())
	}
}

// TestHeartbeatRearmsWithoutTimer: a matched heartbeat re-issues its
// standing expectation inline, with no timer and at most one
// allocation (the expectation itself).
func TestHeartbeatRearmsWithoutTimer(t *testing.T) {
	env := newFakeEnv(ids.MustConfig(4, 1))
	d := New(DefaultOptions())
	d.Bind(env, func(ids.ProcessID, wire.Message) {}, nil)
	period := 10 * time.Millisecond
	NewHeartbeater(d, period).Start(env)
	env.advance(period) // the first arming: one standing expectation per peer
	timers := env.seq
	hb := &wire.Heartbeat{From: 2, Seq: 1}
	if allocs := testing.AllocsPerRun(100, func() { d.Receive(2, hb) }); allocs > 1 {
		t.Errorf("a matched heartbeat: %v allocs, want at most 1", allocs)
	}
	if env.seq != timers {
		t.Errorf("101 matched heartbeats scheduled %d timers, want 0", env.seq-timers)
	}
	if got := d.PendingExpectations(); got != 3 {
		t.Errorf("%d expectations pending, want the 3 standing ones", got)
	}
	if got := env.reg.Counter("fd.expectation.issued"); got != 3+101 {
		t.Errorf("issued %d expectations, want 3 armed and 101 re-armed", got)
	}
}

// TestLateHeartbeatRearmsOnDoubledTimeout: a heartbeat that arrives
// after its expectation expired clears the suspicion and doubles the
// sender's timeout, and the re-issued standing expectation runs on the
// doubled timeout — re-issuing it before the doubling would suspect
// the sender again one base timeout later.
func TestLateHeartbeatRearmsOnDoubledTimeout(t *testing.T) {
	env := newFakeEnv(ids.MustConfig(4, 1))
	d := New(Options{BaseTimeout: 40 * time.Millisecond, MaxTimeout: time.Second, Adaptive: true})
	d.Bind(env, func(ids.ProcessID, wire.Message) {}, nil)
	period := 10 * time.Millisecond
	NewHeartbeater(d, period).Start(env)
	env.advance(period)                // standing expectations armed at 10ms, due at 50ms
	env.advance(45 * time.Millisecond) // 55ms
	if !d.IsSuspected(2) {
		t.Fatal("p2 silent past its timeout is not suspected")
	}
	d.Receive(2, &wire.Heartbeat{From: 2, Seq: 1}) // late: re-armed at 55ms, due at 135ms
	if d.IsSuspected(2) || d.timeoutFor(2) != 80*time.Millisecond {
		t.Fatalf("after the late heartbeat: suspected %v, timeout %s, want cleared and 80ms",
			d.IsSuspected(2), d.timeoutFor(2))
	}
	env.advance(135*time.Millisecond - env.now - 1)
	if d.IsSuspected(2) {
		t.Fatalf("p2 suspected again at %s, before the doubled timeout ran out", env.now)
	}
	env.advance(1)
	if !d.IsSuspected(2) {
		t.Fatalf("p2 not suspected at %s, when the doubled timeout ran out", env.now)
	}
	var details []string
	for _, e := range env.bus.Events() {
		if e.Type == obs.TypeSuspected && e.Subject == 2 {
			details = append(details, fmt.Sprintf("%s@%s", e.Detail, e.At))
		}
	}
	if want := "[heartbeat@50ms heartbeat@135ms]"; fmt.Sprint(details) != want {
		t.Errorf("SUSPECTED records for p2: %v, want %s", details, want)
	}
}

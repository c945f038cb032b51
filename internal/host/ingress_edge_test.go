package host_test

import (
	"errors"
	"testing"
	"time"

	"quorumselect/internal/host"
	"quorumselect/internal/metrics"
	"quorumselect/internal/wire"
)

// TestIngressEdgeCases pins down the ingress corner behaviors the happy
// paths never exercise: the flush timer racing Stop, empty-batch
// suppression, and the post-Stop Submit contract.
func TestIngressEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{
			// A max-latency timer armed before Stop must not fire a batch
			// after it: Stop wins the race however late the timer lands.
			name: "flush timer racing stop",
			run: func(t *testing.T) {
				net, env := newEnv(t)
				var flushes int
				in := host.NewIngress(env, 8,
					func([]*wire.Request, wire.TraceContext) { flushes++ })
				if err := in.Submit(mkReq(1)); err != nil {
					t.Fatalf("Submit: %v", err)
				}
				// Stop lands between timer arm and timer fire.
				net.At(host.DefaultMaxBatchLatency/2, func() { in.Stop() })
				net.Run(50 * time.Millisecond)
				if flushes != 0 {
					t.Fatalf("flush fired %d times after Stop", flushes)
				}
				if in.Pending() != 0 {
					t.Fatalf("stopped ingress still buffers %d requests", in.Pending())
				}
			},
		},
		{
			// Even if the timer callback itself runs after Stop (Stop from
			// inside the timer's own flush), nothing is delivered.
			name: "stop from inside flush",
			run: func(t *testing.T) {
				net, env := newEnv(t)
				var in *host.Ingress
				var flushes int
				in = host.NewIngress(env, 2,
					func([]*wire.Request, wire.TraceContext) {
						flushes++
						in.Stop()
						in.Flush() // re-entrant flush after stop: must be a no-op
					})
				in.Submit(mkReq(1))
				in.Submit(mkReq(2))
				net.Run(10 * time.Millisecond)
				if flushes != 1 {
					t.Fatalf("flush ran %d times, want exactly 1", flushes)
				}
			},
		},
		{
			// Flush with nothing buffered must not call the callback: a
			// zero-length batch would make protocols propose empty slots.
			name: "zero-length batch suppressed",
			run: func(t *testing.T) {
				net, env := newEnv(t)
				var flushes int
				in := host.NewIngress(env, 4,
					func(reqs []*wire.Request, _ wire.TraceContext) {
						if len(reqs) == 0 {
							t.Fatal("flushed a zero-length batch")
						}
						flushes++
					})
				in.Flush() // nothing buffered at all
				in.Submit(mkReq(1))
				in.Flush() // drains the single request
				in.Flush() // drained: nothing again
				// The max-latency timer from Submit may still fire; it must
				// find the buffer empty and stay silent.
				net.Run(50 * time.Millisecond)
				if flushes != 1 {
					t.Fatalf("flush delivered %d batches, want 1", flushes)
				}
			},
		},
		{
			// Submit after Stop returns ErrStopped and buffers nothing —
			// the clean-error contract callers rely on to redirect clients.
			name: "submit after stop returns ErrStopped",
			run: func(t *testing.T) {
				net, env := newEnv(t)
				var flushes int
				in := host.NewIngress(env, 1,
					func([]*wire.Request, wire.TraceContext) { flushes++ })
				if err := in.Submit(mkReq(1)); err != nil {
					t.Fatalf("Submit before Stop: %v", err)
				}
				in.Stop()
				in.Stop() // idempotent
				if err := in.Submit(mkReq(2)); !errors.Is(err, host.ErrStopped) {
					t.Fatalf("Submit after Stop = %v, want ErrStopped", err)
				}
				if in.Pending() != 0 {
					t.Fatalf("post-stop submit buffered a request (pending=%d)", in.Pending())
				}
				net.Run(20 * time.Millisecond)
				if flushes != 1 {
					t.Fatalf("flush ran %d times, want only the pre-stop one", flushes)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestIngressPendingGauge pins the host.ingress.pending node gauge:
// it tracks the buffer depth through submits, gated pooling, and the
// drain, so an operator can see the backpressure reservoir fill when
// the commit window closes under open-loop load.
func TestIngressPendingGauge(t *testing.T) {
	net, env := newEnv(t)
	gauge := func() float64 {
		return net.Metrics().Gauge("host.ingress.pending", metrics.L{Key: "node", Value: env.ID().String()})
	}
	open := false
	in := host.NewIngress(env, 2,
		func([]*wire.Request, wire.TraceContext) {})
	in.SetGate(func() bool { return open })

	// Gate closed: submissions pool past BatchSize and the gauge climbs.
	for i := 1; i <= 5; i++ {
		in.Submit(mkReq(uint64(i)))
	}
	if g := gauge(); g != 5 {
		t.Fatalf("gated gauge = %v, want 5 (pending=%d)", g, in.Pending())
	}
	// Gate opens: Flush drains everything and the gauge returns to zero.
	open = true
	in.Flush()
	if in.Pending() != 0 {
		t.Fatalf("flush left %d pending", in.Pending())
	}
	if g := gauge(); g != 0 {
		t.Fatalf("drained gauge = %v, want 0", g)
	}
	// Stop drops a refilled buffer and zeroes the gauge with it.
	open = false
	in.Submit(mkReq(6))
	if g := gauge(); g != 1 {
		t.Fatalf("refilled gauge = %v, want 1", g)
	}
	in.Stop()
	if g := gauge(); g != 0 {
		t.Fatalf("post-stop gauge = %v, want 0", g)
	}
}

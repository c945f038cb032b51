package core_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/sim"
)

// TestObservabilityEndToEnd drives the full composition (failure
// detector → suspicion store → selector) through a crash and checks
// that the run is observable from the outside: typed events on the bus,
// detection latency in the histogram, and gauges tracking store state.
func TestObservabilityEndToEnd(t *testing.T) {
	opts := quietOpts()
	opts.HeartbeatPeriod = 25 * time.Millisecond
	// Crash p2: a default-quorum member, so the crash must force a
	// quorum change as well as suspicions.
	fx := newFixture(t, 4, 1, opts, sim.Options{}, ids.NewProcSet(2))
	fx.net.Run(2 * time.Second)

	bus := fx.net.Events()
	if bus.Total() == 0 {
		t.Fatal("no events published during the run")
	}
	// Expectations get no record of their own; the detector's counter
	// shows the heartbeat expectations were issued.
	if got := fx.net.Metrics().Counter("fd.expectation.issued"); got == 0 {
		t.Error("no heartbeat expectations issued")
	}
	suspected := bus.OfType(obs.TypeSuspected)
	if len(suspected) == 0 {
		t.Fatal("no SUSPECTED events after p2 crashed")
	}
	for _, e := range suspected {
		if e.Subject != 2 {
			t.Errorf("SUSPECTED subject = %s, want p2 (event %s)", e.Subject, e)
		}
		if e.Node == 2 {
			t.Errorf("crashed p2 emitted an event: %s", e)
		}
	}
	qc := bus.OfType(obs.TypeQuorumChange)
	if len(qc) == 0 {
		t.Fatal("no QUORUM_CHANGE events after the crash")
	}
	if qc[0].Detail == "" {
		t.Error("QUORUM_CHANGE carries no quorum membership detail")
	}

	reg := fx.net.Metrics()
	h, ok := reg.Hist("fd.detection.latency.seconds")
	if !ok || h.Count == 0 {
		t.Fatal("fd.detection.latency.seconds histogram empty")
	}
	if p50 := h.Percentile(50); p50 <= 0 || p50 > 2 {
		t.Errorf("detection latency p50 = %v s, want within (0, 2]", p50)
	}
	if v := reg.Gauge("suspicion.store.size", metrics.L{Key: "node", Value: "p1"}); v <= 0 {
		t.Errorf("suspicion.store.size{node=p1} = %v, want positive", v)
	}
	if v := reg.Gauge("fd.expectations.pending", metrics.L{Key: "node", Value: "p1"}); v < 0 {
		t.Errorf("fd.expectations.pending{node=p1} = %v, want non-negative", v)
	}
	if reg.Counter("core.quorum.recomputed") == 0 {
		t.Error("core.quorum.recomputed never incremented")
	}
	if h, ok := reg.Hist("core.quorum.update.seconds"); !ok || h.Count == 0 {
		t.Error("core.quorum.update.seconds histogram empty")
	}

	// Events are timeline-ordered and carry the virtual clock.
	events := bus.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("event seq gap: %d then %d", events[i-1].Seq, events[i].Seq)
		}
	}
}

// TestPerfCountersExposed checks the hot-path instrumentation added
// with the incremental suspect-graph cache: selector memoization
// hit/miss counters, the explicit-rebuild counter, and the graph.n
// gauge — and that all of them survive into the Prometheus exposition.
func TestPerfCountersExposed(t *testing.T) {
	fx := newFixture(t, 4, 1, quietOpts(), sim.Options{}, ids.NewProcSet())
	fx.net.Run(100 * time.Millisecond)
	n1 := fx.nodes[1]
	n1.Selector.OnSuspected(ids.NewProcSet(2))
	fx.net.Run(fx.net.Now() + time.Second)
	// Same graph version, same q: a second evaluation must hit the memo.
	n1.Selector.UpdateQuorum()

	reg := fx.net.Metrics()
	if reg.Counter("selector.iset.cache_misses") == 0 {
		t.Error("selector.iset.cache_misses never incremented")
	}
	if reg.Counter("selector.iset.cache_hits") == 0 {
		t.Error("selector.iset.cache_hits never incremented")
	}
	if reg.Counter("suspicion.graph.rebuilds") != 0 {
		t.Errorf("suspicion.graph.rebuilds = %d without any explicit rebuild",
			reg.Counter("suspicion.graph.rebuilds"))
	}
	n1.Store.SuspectGraphAt(n1.Store.Epoch() + 1) // not the current epoch: rebuilt from the matrix
	if reg.Counter("suspicion.graph.rebuilds") != 1 {
		t.Errorf("suspicion.graph.rebuilds = %d, want 1", reg.Counter("suspicion.graph.rebuilds"))
	}
	if v := reg.Gauge("graph.n", metrics.L{Key: "node", Value: "p1"}); v != 4 {
		t.Errorf("graph.n{node=p1} = %v, want 4", v)
	}

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatalf("prometheus exposition failed: %v", err)
	}
	body := buf.String()
	for _, name := range []string{
		"selector.iset.cache_hits",
		"selector.iset.cache_misses",
		"suspicion.graph.rebuilds",
		"graph.n",
	} {
		if !strings.Contains(body, metrics.SanitizeName(name)) {
			t.Errorf("/metrics exposition missing %s (as %s)", name, metrics.SanitizeName(name))
		}
	}
}

// TestObservabilityDeterministic asserts the event stream is
// reproducible: same seed, same nodes → byte-identical timelines.
func TestObservabilityDeterministic(t *testing.T) {
	run := func() string {
		fx := newFixture(t, 4, 1, quietOpts(), sim.Options{Seed: 7}, ids.NewProcSet())
		fx.nodes[1].Selector.OnSuspected(ids.NewProcSet(2))
		fx.net.Run(time.Second)
		out := ""
		for _, e := range fx.net.Events().Events() {
			out += e.String() + "\n"
		}
		return out
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("no events captured")
	}
	if a != b {
		t.Fatalf("event timelines differ between identical runs:\n%s\nvs\n%s", a, b)
	}
}

package xpaxos_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

// traceFixture is the qsFixture plus its stream with spans on, shared
// by every simulated process (one virtual clock, so durations compare
// exactly).
func newTraceFixture(t *testing.T, simOpts sim.Options) (*qsFixture, *obs.Bus) {
	t.Helper()
	tr := obs.NewBus(0)
	tr.SetEnabled(true)
	simOpts.Tracer = tr
	if simOpts.Latency == nil {
		simOpts.Latency = sim.ConstantLatency(2 * time.Millisecond)
	}
	fx := newQSFixture(t, 4, 1, quietNodeOpts(), simOpts, ids.NewProcSet(), nil)
	return fx, tr
}

// spanIndex maps span IDs to spans for parent resolution.
func spanIndex(spans []obs.Span) map[uint64]obs.Span {
	idx := make(map[uint64]obs.Span, len(spans))
	for _, s := range spans {
		idx[s.ID] = s
	}
	return idx
}

func namesOn(spans []obs.Span, node ids.ProcessID) map[string]obs.Span {
	out := make(map[string]obs.Span)
	for _, s := range spans {
		if s.Node == node {
			out[s.Name] = s
		}
	}
	return out
}

// TestTraceSpanTreeAcrossReplicas is the end-to-end causality check: a
// request submitted at the passive replica p4 must produce ONE span
// tree covering all four processes — p4's ingress (the root), the
// forwarded batch re-entering the leader's ingress, the leader's
// propose/quorum/execute stages, the followers' accept stages, and
// p4's lazy-replication execute — with every parent pointer resolving
// inside the trace and the leader's stage durations tiling the
// end-to-end commit latency exactly (one virtual clock).
func TestTraceSpanTreeAcrossReplicas(t *testing.T) {
	fx, tr := newTraceFixture(t, sim.Options{})
	fx.replicas[4].Submit(req(7, 1, "set traced yes"))
	ok := fx.net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 2, 3, 4} {
			if fx.replicas[p].LastExecuted() < 1 {
				return false
			}
		}
		return true
	}, 5*time.Second)
	if !ok {
		t.Fatal("request submitted at passive replica did not execute everywhere")
	}

	// Exactly one trace, rooted at p4's ingress span.
	var roots []obs.Span
	for _, s := range tr.Spans() {
		if s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	if len(roots) != 1 {
		t.Fatalf("found %d root spans, want exactly 1: %+v", len(roots), roots)
	}
	root := roots[0]
	if root.Name != "ingress" || root.Node != 4 {
		t.Fatalf("root span = %s on %s, want ingress on p4", root.Name, root.Node)
	}
	if root.Trace != root.ID {
		t.Errorf("root span ID %#x != trace ID %#x", root.ID, root.Trace)
	}

	all := tr.Spans()
	var spans []obs.Span
	for _, s := range all {
		if s.Trace == root.Trace {
			spans = append(spans, s)
		}
	}
	if got, want := len(spans), len(all); got != want {
		t.Errorf("trace holds %d spans but %d were recorded — a span escaped the tree", got, want)
	}
	idx := spanIndex(spans)
	nodes := make(map[ids.ProcessID]bool)
	for _, s := range spans {
		nodes[s.Node] = true
		if s.Parent != 0 {
			if _, ok := idx[s.Parent]; !ok {
				t.Errorf("span %s on %s: parent %#x not in trace", s.Name, s.Node, s.Parent)
			}
		}
		if s.Dur < 0 {
			t.Errorf("span %s on %s has negative duration %v", s.Name, s.Node, s.Dur)
		}
	}
	if len(nodes) < 4 {
		t.Errorf("trace covers %d nodes, want all 4", len(nodes))
	}

	// The causal chain: p4 ingress → leader ingress → propose → quorum
	// → execute, and follower accepts hang off the propose span.
	leader := namesOn(spans, 1)
	for _, name := range []string{"ingress", "propose", "quorum", "execute"} {
		if _, ok := leader[name]; !ok {
			t.Fatalf("leader recorded no %q span", name)
		}
	}
	if leader["ingress"].Parent != root.ID {
		t.Errorf("leader ingress parent = %#x, want forwarding ingress %#x", leader["ingress"].Parent, root.ID)
	}
	if leader["propose"].Parent != leader["ingress"].ID {
		t.Errorf("propose parent = %#x, want leader ingress %#x", leader["propose"].Parent, leader["ingress"].ID)
	}
	if leader["quorum"].Parent != leader["propose"].ID {
		t.Errorf("quorum parent = %#x, want propose %#x", leader["quorum"].Parent, leader["propose"].ID)
	}
	if leader["execute"].Parent != leader["quorum"].ID {
		t.Errorf("execute parent = %#x, want quorum %#x", leader["execute"].Parent, leader["quorum"].ID)
	}
	for _, p := range []ids.ProcessID{2, 3} {
		follower := namesOn(spans, p)
		acc, ok := follower["accept"]
		if !ok {
			t.Fatalf("%s recorded no accept span", p)
		}
		if acc.Parent != leader["propose"].ID {
			t.Errorf("%s accept parent = %#x, want propose %#x", p, acc.Parent, leader["propose"].ID)
		}
		if acc.Slot != 1 {
			t.Errorf("%s accept slot = %d, want 1", p, acc.Slot)
		}
	}
	// The passive replica's execute (lazy replication via CommitCert)
	// joins the tree through the certificate's embedded PREPARE.
	passive := namesOn(spans, 4)
	if exec, ok := passive["execute"]; !ok {
		t.Error("passive p4 recorded no execute span")
	} else if exec.Parent != leader["propose"].ID {
		t.Errorf("p4 execute parent = %#x, want propose %#x", exec.Parent, leader["propose"].ID)
	}

	// Stage tiling: on the leader the four stages are contiguous on one
	// virtual clock, so their durations sum EXACTLY to the end-to-end
	// latency from batch arrival to execution.
	var sum time.Duration
	for _, name := range []string{"ingress", "propose", "quorum", "execute"} {
		sum += leader[name].Dur
	}
	e2e := leader["execute"].Start + leader["execute"].Dur - leader["ingress"].Start
	if sum != e2e {
		t.Errorf("leader stage durations sum to %v, want end-to-end %v", sum, e2e)
	}
}

// TestMutatedTraceContextDegradesGracefully pins the observability
// contract: the trace context rides OUTSIDE signature coverage, so an
// adversary corrupting (or stripping) it on every PREPARE/COMMIT/BATCH
// frame degrades tracing to unlinked spans but can never disturb the
// protocol — no failed verification, no suspicion, no view change, and
// the request still commits everywhere.
func TestMutatedTraceContextDegradesGracefully(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stamp wire.TraceContext
	}{
		{"scrambled", wire.TraceContext{Trace: 0xDEAD, Span: 0xBEEF}},
		{"stripped", wire.TraceContext{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restamp := func(frame []byte) []byte {
				m, err := wire.Decode(frame)
				if err != nil {
					return frame
				}
				c := wire.TraceField(m)
				if c == nil {
					return frame
				}
				*c = tc.stamp
				return wire.Encode(m)
			}
			filter := sim.FilterFunc(func(_, _ ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
				switch m.Kind() {
				case wire.TypeBatch, wire.TypePrepare, wire.TypeCommit:
					return sim.Verdict{Mutate: restamp}
				}
				return sim.Verdict{}
			})
			fx, tr := newTraceFixture(t, sim.Options{Filter: filter})
			fx.replicas[4].Submit(req(7, 1, "set traced no"))
			ok := fx.net.RunUntil(func() bool {
				for _, p := range []ids.ProcessID{1, 2, 3} {
					if fx.replicas[p].LastExecuted() < 1 {
						return false
					}
				}
				return true
			}, 5*time.Second)
			if !ok {
				t.Fatal("commit path broke under trace-context corruption")
			}
			for p, n := range fx.nodes {
				if !n.Detector.Suspected().Empty() {
					t.Errorf("%s suspects %s because of a trace-context mutation", p, n.Detector.Suspected())
				}
			}
			if fx.replicas[1].ViewChanges() != 0 {
				t.Error("trace-context corruption triggered a view change")
			}
			// Tracing degraded but kept recording: the leader still has
			// a propose span; it just no longer parents the follower
			// accepts (their PREPARE arrived re-stamped).
			var propose, accepts int
			for _, s := range tr.Spans() {
				switch s.Name {
				case "propose":
					propose++
				case "accept":
					accepts++
					if want := (tc.stamp == wire.TraceContext{}); want != (s.Parent == 0) {
						t.Errorf("accept span parent = %#x under %s context", s.Parent, tc.name)
					}
				}
			}
			if propose == 0 || accepts == 0 {
				t.Errorf("spans stopped being recorded under mutation: propose=%d accepts=%d", propose, accepts)
			}
		})
	}
}

// TestChromeExportGolden pins the Chrome trace-event export of a fixed,
// fully deterministic simulation: span IDs are node-prefixed sequence
// numbers and the virtual clock is seeded, so the export is
// byte-identical across runs (regenerate with UPDATE_GOLDEN=1).
func TestChromeExportGolden(t *testing.T) {
	fx, tr := newTraceFixture(t, sim.Options{Seed: 42})
	for i := 1; i <= 3; i++ {
		fx.replicas[1].Submit(req(9, uint64(i), "set golden run"))
	}
	fx.net.Run(time.Second)
	if fx.replicas[1].LastExecuted() != 3 {
		t.Fatalf("golden scenario executed %d slots, want 3", fx.replicas[1].LastExecuted())
	}
	got := obs.Capture("golden", tr).Chrome()

	golden := filepath.Join("testdata", "chrome_trace_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Chrome export drifted from golden file %s (%d vs %d bytes); "+
			"regenerate with UPDATE_GOLDEN=1 if the change is intentional", golden, len(got), len(want))
	}
}

// TestOneStreamOneOrder: with spans on, a simulated cluster's protocol
// events and spans land in one stream, interleaved in one strictly
// increasing sequence, and the span view, the event view, the /trace
// dump and the Chrome export are all views of that same read.
func TestOneStreamOneOrder(t *testing.T) {
	fx, tr := newTraceFixture(t, sim.Options{Seed: 42})
	for i := 1; i <= 3; i++ {
		fx.replicas[1].Submit(req(9, uint64(i), "set one stream"))
	}
	fx.net.Run(time.Second)
	all, missed := tr.Since(0)
	if missed != 0 || len(all) == 0 {
		t.Fatalf("Since(0) = %d records, %d missed", len(all), missed)
	}

	var spans []obs.Span
	var events []obs.Event
	switches := 0
	for i, e := range all {
		if e.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: not one strictly increasing sequence", i, e.Seq)
		}
		if i > 0 && (e.Type == obs.TypeSpan) != (all[i-1].Type == obs.TypeSpan) {
			switches++
		}
		if e.Type != obs.TypeSpan {
			events = append(events, e)
			continue
		}
		spans = append(spans, obs.Span{Trace: e.Trace, ID: e.SpanID, Parent: e.Parent, Node: e.Node,
			Name: e.Detail, Start: e.At, Dur: e.Dur, Slot: e.Slot, View: e.View})
	}
	if len(spans) == 0 || len(events) == 0 || switches < 2 {
		t.Fatalf("%d spans and %d events with %d switches between them: not interleaved",
			len(spans), len(events), switches)
	}
	if !reflect.DeepEqual(tr.Spans(), spans) || !reflect.DeepEqual(tr.Events(), events) ||
		len(tr.OfType(obs.TypeSpan)) != len(spans) {
		t.Error("Spans/Events/OfType are not views of Since(0)")
	}

	// Every span belongs to a trace rooted at a span of the same read.
	roots := make(map[uint64]bool)
	for _, s := range spans {
		if s.Parent == 0 && s.Trace == s.ID {
			roots[s.ID] = true
		}
	}
	for _, s := range spans {
		if !roots[s.Trace] {
			t.Fatalf("span %s on %s names trace %#x, which has no root in the stream", s.Name, s.Node, s.Trace)
		}
	}

	got := obs.Capture("one stream", tr)
	want := obs.Dump{Reason: "one stream", Spans: spans, Events: events}
	if !bytes.Equal(got.JSON(), want.JSON()) {
		t.Error("the /trace dump is not the views of Since(0)")
	}
	if !bytes.Equal(got.Chrome(), want.Chrome()) {
		t.Error("the Chrome export is not the views of Since(0)")
	}
}

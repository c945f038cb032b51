package experiments

import (
	"fmt"
	"time"

	"quorumselect/internal/adversary"
	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/fd"
	"quorumselect/internal/graph"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/suspicion"
	"quorumselect/internal/wire"
)

// E7DetectionMatrix reproduces the failure classification of §II: each
// failure class is injected against a heartbeating cluster and the
// failure detector's behavior at a correct observer (p1, watching the
// faulty p4) is classified:
//
//	permanent — suspected and never cleared (crash, commission)
//	eventual  — suspected and cleared repeatedly (repeated omission,
//	            increasing timing)
//	absorbed  — finitely many false suspicions, then silence (bounded
//	            timing against the adaptive timeout)
func E7DetectionMatrix() Table {
	t := Table{
		ID:      "E7",
		Title:   "Failure classification and detection (§II)",
		Columns: []string{"failure class", "raised", "canceled", "app-detected", "classification", "paper", "detect p50 (ms)"},
	}

	type scenario struct {
		name    string
		paper   string
		filter  sim.Filter
		crash   bool
		detect  bool // application reports DETECTED (commission proof)
		runtime time.Duration
	}
	faulty := ids.NewProcSet(4)
	scenarios := []scenario{
		{
			name: "crash (silence)", paper: "permanent (in practice)",
			crash: true, runtime: 2 * time.Second,
		},
		{
			name: "commission (proof)", paper: "permanent",
			detect: true, runtime: 2 * time.Second,
		},
		{
			// Omission bursts of 1.5s (beyond any timeout the adaptive
			// detector reaches) followed by 1.5s of normal sending.
			name: "repeated omission", paper: "eventual",
			filter:  &adversary.BurstOmission{Faulty: faulty, On: 1500 * time.Millisecond, Off: 1500 * time.Millisecond},
			runtime: 15 * time.Second,
		},
		{
			// Bounded jitter up to 120ms: a few false suspicions until
			// the adaptive timeout outgrows the jitter.
			name: "bounded timing", paper: "absorbed (accuracy)",
			filter:  adversary.NewJitterDelay(faulty, 120*time.Millisecond, 1),
			runtime: 8 * time.Second,
		},
		{
			// Delay grows by 1.5s every 2.5s — increasing without
			// bound, so each step outruns even the capped timeout.
			name: "increasing timing", paper: "eventual",
			filter:  &adversary.SteppedDelay{Faulty: faulty, Step: 1500 * time.Millisecond, Every: 2500 * time.Millisecond},
			runtime: 18 * time.Second,
		},
	}

	for _, sc := range scenarios {
		raised, canceled, detected, detectP50 := runE7(sc.filter, sc.crash, sc.detect, sc.runtime)
		class := classify(raised, canceled, detected)
		t.AddRow(sc.name, raised, canceled, detected, class, sc.paper, detectP50)
	}
	t.Notes = append(t.Notes,
		"detect p50 = median fd.detection.latency.seconds (expectation issue -> suspicion) across all observers; '-' when no timeout suspicion occurred")
	return t
}

func classify(raised, canceled int, detected bool) string {
	switch {
	case detected:
		return "permanent"
	case raised >= 1 && canceled == 0:
		return "permanent (in practice)"
	case raised >= 3 && canceled >= 3:
		return "eventual"
	case raised >= 1:
		return "absorbed (accuracy)"
	default:
		return "undetected"
	}
}

// e7Node is a heartbeating observer process.
type e7Node struct {
	hbPeriod time.Duration
	adaptive bool
	d        *fd.Detector
	hb       *fd.Heartbeater
}

func (n *e7Node) Init(env runtime.Env) {
	opts := fd.DefaultOptions()
	opts.Adaptive = n.adaptive
	n.d = fd.New(opts)
	n.d.Bind(env, func(ids.ProcessID, wire.Message) {}, nil)
	n.hb = fd.NewHeartbeater(n.d, n.hbPeriod)
	n.hb.Start(env)
}

func (n *e7Node) Receive(from ids.ProcessID, m wire.Message) { n.d.Receive(from, m) }

// detectionP50 reads the median detection latency from the run's
// fd.detection.latency.seconds histogram, formatted in milliseconds
// ("-" when no timeout suspicion was recorded).
func detectionP50(net *sim.Network) string {
	h, ok := net.Metrics().Hist("fd.detection.latency.seconds")
	if !ok || h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", h.Percentile(50)*1000)
}

func runE7(filter sim.Filter, crash, detect bool, dur time.Duration) (raised, canceled int, detected bool, detectP50 string) {
	cfg := ids.MustConfig(4, 1)
	net, observers := cluster.Nodes(cfg, func(p ids.ProcessID) (*e7Node, bool) {
		if p == 4 && crash {
			return nil, false
		}
		return &e7Node{hbPeriod: 25 * time.Millisecond, adaptive: true}, true
	}, sim.Options{
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Filter:  filter,
	})
	if detect {
		// The application found a proof of misbehavior shortly into
		// the run.
		net.Env(1).After(100*time.Millisecond, func() { observers[1].d.Detected(4) })
	}
	net.Run(dur)
	o := observers[1]
	return o.d.SuspicionsRaised(4), o.d.SuspicionsCanceled(4), o.d.IsDetected(4), detectionP50(net)
}

// E8SuspectGraph replays Figure 4 exactly: the 5-process suspect graph
// whose epoch-2 suspicions admit no quorum and whose epoch-3 graph
// yields {p1,p3,p4} as the lexicographically-first independent set.
func E8SuspectGraph() Table {
	t := Table{
		ID:      "E8",
		Title:   "Figure 4: suspect graph, epochs and independent sets",
		Columns: []string{"epoch", "edges", "independent set of size 3", "chosen quorum"},
	}
	cfg := ids.MustConfig(5, 2)
	store := buildFig4Store(cfg)
	for _, epoch := range []uint64{2, 3} {
		g := store.SuspectGraphAt(epoch)
		edges := fmt.Sprintf("%v", g.Edges())
		set, ok := g.FirstIndependentSet(cfg.Q())
		if !ok {
			t.AddRow(epoch, edges, "none", "epoch advance")
			continue
		}
		t.AddRow(epoch, edges, "exists", ids.NewQuorum(set).String())
	}
	t.Notes = append(t.Notes,
		"paper: 'in epoch 2, no independent set of size 3 can be found; at epoch 3 the edge (p3,p4) is removed'")
	return t
}

// buildFig4Store loads the Figure 4 suspicions into a store: (1,2),
// (1,5), (2,5) at epoch 3 and (3,4) at epoch 2.
func buildFig4Store(cfg ids.Config) *suspicion.Store {
	// A bare store is enough for a static replay; the network exists
	// only to provide an Env.
	net, _ := cluster.Nodes(cfg, func(ids.ProcessID) (runtime.Node, bool) { return nil, false }, sim.Options{})
	store := suspicion.New(cfg, suspicion.Options{Forward: false})
	store.Bind(net.Env(1), nil)
	store.HandleUpdate(&wire.Update{Owner: 1, Row: []uint64{0, 3, 0, 0, 3}, Sig: []byte{0}})
	store.HandleUpdate(&wire.Update{Owner: 2, Row: []uint64{0, 0, 0, 0, 3}, Sig: []byte{0}})
	store.HandleUpdate(&wire.Update{Owner: 3, Row: []uint64{0, 0, 0, 2, 0}, Sig: []byte{0}})
	return store
}

// E9LineSubgraphs replays Examples 1 and 2 of §VIII: maximal line
// subgraphs, designated leaders and possible followers.
func E9LineSubgraphs() Table {
	t := Table{
		ID:      "E9",
		Title:   "Examples 1–2 (§VIII): maximal line subgraphs and possible followers",
		Columns: []string{"case", "graph edges", "maximal line subgraph", "leader", "not possible followers"},
	}
	// Example 1: G on 7 nodes; p2 is not a possible follower; adding
	// (p2,p5) changes nothing.
	g1 := graph.New(7)
	g1.AddEdge(1, 2)
	g1.AddEdge(2, 3)
	l1 := graph.MaximalLineSubgraph(g1)
	t.AddRow("Example 1", fmt.Sprintf("%v", g1.Edges()), fmt.Sprintf("%v", l1.Edges()),
		l1.Leader(), notPossible(l1))
	g1b := g1.Clone()
	g1b.AddEdge(2, 5)
	l1b := graph.MaximalLineSubgraph(g1b)
	t.AddRow("Example 1 + (p2,p5)", fmt.Sprintf("%v", g1b.Edges()), fmt.Sprintf("%v", l1b.Edges()),
		l1b.Leader(), notPossible(l1b))
	// Example 2: adding (p3,p5) changes leader and subgraph.
	g2 := graph.New(7)
	g2.AddEdge(1, 2)
	g2.AddEdge(4, 5)
	l2 := graph.MaximalLineSubgraph(g2)
	t.AddRow("Example 2 before", fmt.Sprintf("%v", g2.Edges()), fmt.Sprintf("%v", l2.Edges()),
		l2.Leader(), notPossible(l2))
	g2.AddEdge(3, 5)
	l2b := graph.MaximalLineSubgraph(g2)
	t.AddRow("Example 2 + (p3,p5)", fmt.Sprintf("%v", g2.Edges()), fmt.Sprintf("%v", l2b.Edges()),
		l2b.Leader(), notPossible(l2b))
	return t
}

func notPossible(l *graph.LineSubgraph) string {
	var out []string
	for i := 1; i <= l.N(); i++ {
		p := ids.ProcessID(i)
		if !l.IsPossibleFollower(p) {
			out = append(out, p.String())
		}
	}
	if len(out) == 0 {
		return "(none)"
	}
	return fmt.Sprintf("%v", out)
}

// E10Ablations measures the design choices §VI-C argues for: (a) update
// forwarding versus none under a cut link (agreement), and (b) adaptive
// versus fixed failure-detector timeouts under bounded extra delay
// (false-suspicion rate, the eventual-strong-accuracy mechanism).
func E10Ablations() Table {
	t := Table{
		ID:      "E10",
		Title:   "Ablations (§VI-C design choices)",
		Columns: []string{"ablation", "variant", "metric", "value"},
	}

	// (a) forwarding: cut p1→p3; does p3 still learn p1's suspicion?
	for _, forward := range []bool{true, false} {
		converged := runE10Forwarding(forward)
		t.AddRow("update forwarding", fmt.Sprintf("forward=%v", forward),
			"p3 converged despite cut link", converged)
	}

	// (b) adaptive timeout under jittered (≤120ms) delay from p4.
	for _, adaptive := range []bool{true, false} {
		raised, detectP50 := runE10Adaptive(adaptive)
		t.AddRow("adaptive FD timeout", fmt.Sprintf("adaptive=%v", adaptive),
			"false suspicions of slow-but-correct p4", raised)
		// Separate first column so the (ablation, variant) key stays
		// unique per metric for consumers indexing rows pairwise.
		t.AddRow("FD detection latency", fmt.Sprintf("adaptive=%v", adaptive),
			"p50 suspicion latency (ms)", detectP50)
	}
	return t
}

func runE10Forwarding(forward bool) bool {
	cut := sim.FilterFunc(func(from, to ids.ProcessID, _ wire.Message, _ time.Duration) sim.Verdict {
		return sim.Verdict{Drop: from == 1 && to == 3}
	})
	cfg := ids.MustConfig(4, 1)
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	opts.Store = suspicion.Options{Forward: forward}
	net, coreNodes := cluster.Nodes(cfg, func(ids.ProcessID) (*core.Node, bool) { return core.NewNode(opts), true },
		sim.Options{Filter: cut})
	coreNodes[1].Selector.OnSuspected(ids.NewProcSet(2))
	net.Run(2 * time.Second)
	return coreNodes[3].Store.Value(1, 2) == 1
}

func runE10Adaptive(adaptive bool) (int, string) {
	faulty := ids.NewProcSet(4)
	slow := adversary.NewJitterDelay(faulty, 120*time.Millisecond, 2)
	cfg := ids.MustConfig(4, 1)
	net, observers := cluster.Nodes(cfg, func(ids.ProcessID) (*e7Node, bool) {
		return &e7Node{hbPeriod: 25 * time.Millisecond, adaptive: adaptive}, true
	}, sim.Options{
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Filter:  slow,
	})
	net.Run(6 * time.Second)
	return observers[1].d.SuspicionsRaised(4), detectionP50(net)
}

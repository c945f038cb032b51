package chaos

import (
	"fmt"
	"strings"
	"time"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/quorum"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// DefaultUnsafeSpec is an intersection-violating slice spec: p1 and p2
// rely only on each other, as do p3 and p4. Its minimal quorums are the
// DISJOINT pair {p1,p2} and {p3,p4} — a split-brain configuration the
// checker must reject before any node boots on it.
const DefaultUnsafeSpec = "slices:n=4;1={2};2={1};3={4};4={3}"

// UnsafeSpecConfig parameterizes the unsafe-spec adversary. Two
// regimes:
//
//   - Force=false (the boot gate): run the intersection checker —
//     including the seeded randomized sampler, forced on even at n=4 —
//     against the spec. A checker that ACCEPTS the unsafe spec is the
//     violation.
//   - Force=true (the demonstration): skip the gate, boot a cluster on
//     the spec with the two disjoint quorums active on either side of a
//     partition, and let both sides certify. The expected outcome is a
//     history-agreement violation with the cross-side commit
//     certificate accepted by System.IsQuorum — proof that the spec the
//     checker rejects really does fork the log.
type UnsafeSpecConfig struct {
	// Spec is the quorum spec under attack (default DefaultUnsafeSpec).
	Spec string
	// Force boots a cluster on the spec instead of (only) checking it.
	Force bool
	// Seeds is how many consecutive seeds Run executes (default 1);
	// FirstSeed is the first. The seed feeds both the network schedule
	// and the checker's sampler.
	Seeds     int
	FirstSeed int64
	// Samples is the forced sampler's budget (default 2048; a disjoint
	// bipartition of the default spec is hit with probability 1/8 per
	// sample, so the sweep is certain in practice while staying seeded).
	Samples int
	// HealAt closes the partition (default 60ms); SettleAt submits the
	// post-heal request whose certificate crosses sides (default 75ms);
	// Horizon ends the run (default 200ms).
	HealAt, SettleAt, Horizon time.Duration
	// Metrics, when set, receives the runs' metrics.
	Metrics *metrics.Registry
}

func (c UnsafeSpecConfig) unsafeDefaults() UnsafeSpecConfig {
	if c.Spec == "" {
		c.Spec = DefaultUnsafeSpec
	}
	if c.Seeds == 0 {
		c.Seeds = 1
	}
	if c.Samples == 0 {
		c.Samples = 2048
	}
	if c.HealAt == 0 {
		c.HealAt = 60 * time.Millisecond
	}
	if c.SettleAt == 0 {
		c.SettleAt = 75 * time.Millisecond
	}
	if c.Horizon == 0 {
		c.Horizon = 200 * time.Millisecond
	}
	return c
}

// RunUnsafeSpec executes cfg.Seeds consecutive seeds and stops at the
// first violation. Note the polarity per regime: without Force a
// violation means the checker FAILED to reject the unsafe spec; with
// Force a violation (history divergence) is the expected demonstration,
// and its absence is reported by the caller as the failure.
func RunUnsafeSpec(cfg UnsafeSpecConfig) Result {
	cfg = cfg.unsafeDefaults()
	return runSeeds("unsafe-spec", cfg.FirstSeed, cfg.Seeds, func(seed int64) *Violation {
		v, _ := runUnsafeSpecSeed(cfg, seed, false)
		return v
	})
}

// ReplayUnsafeSpec executes one seed and returns the full dump
// regardless of outcome. The dump is a pure function of (cfg, seed):
// virtual time, deterministic event strings, and a checker whose
// sampler is seeded from the chaos seed — two replays produce identical
// bytes.
func ReplayUnsafeSpec(cfg UnsafeSpecConfig, seed int64) (string, *Violation) {
	v, dump := runUnsafeSpecSeed(cfg.unsafeDefaults(), seed, true)
	return dump, v
}

type unsafeSpecRun struct {
	cfg      UnsafeSpecConfig
	idsCfg   ids.Config
	bus      *obs.Bus
	nodes    map[ids.ProcessID]*core.Node
	replicas map[ids.ProcessID]*xpaxos.Replica
	sideA    ids.ProcSet // members of the first disjoint quorum
	reports  []quorum.Report
}

func runUnsafeSpecSeed(cfg UnsafeSpecConfig, seed int64, alwaysDump bool) (*Violation, string) {
	r := &unsafeSpecRun{cfg: cfg, bus: obs.NewBus(0)}

	sys, err := quorum.ParseSpec(cfg.Spec)
	if err != nil {
		// A malformed spec is a configuration error of the scenario
		// itself, not a finding about the checker.
		v := &Violation{Seed: seed, Checker: "unsafe-spec-config",
			Detail: fmt.Sprintf("spec does not parse: %v", err)}
		v.Dump = fmt.Sprintf("chaos-unsafe-spec: seed=%d spec=%q\nviolation: %s\n", seed, cfg.Spec, v.Detail)
		return v, v.Dump
	}

	// The boot gate, both ways: the exact checker and the seeded
	// sampler (forced via MaxExactN=-1 so replays exercise the
	// randomized path deterministically). Both verdicts go in the dump.
	exact := quorum.Check(sys, quorum.CheckOptions{Faults: 1})
	sampled := quorum.Check(sys, quorum.CheckOptions{
		MaxExactN: -1, Samples: cfg.Samples, Seed: uint64(seed), Faults: 1})
	r.reports = []quorum.Report{exact, sampled}

	var v *Violation
	if exact.Err() == nil {
		// The exact checker is ground truth at these sizes: a spec it
		// calls safe has no disjoint quorums, so there is nothing for
		// this scenario to demonstrate.
		v = &Violation{Seed: seed, Checker: "unsafe-spec-config",
			Detail: fmt.Sprintf("spec %q is safe (exact checker found no disjoint quorums); the unsafe-spec scenario needs an intersection-violating spec", cfg.Spec)}
	} else if sampled.Err() == nil {
		v = &Violation{Seed: seed, Checker: "unsafe-spec-checker",
			Detail: fmt.Sprintf("seeded sampler accepted a spec the exact checker rejects (%v)", exact.Err())}
	}
	if !cfg.Force || v != nil {
		var dump string
		if v != nil || alwaysDump {
			dump = r.gateDump(seed, v)
		}
		if v != nil {
			v.Dump = dump
		}
		return v, dump
	}

	// Forced past the gate: boot the cluster with the two lex-first
	// disjoint quorums active on either side of a partition. The fork
	// must be staged through initial views — a partition alone does not
	// move the selector (both sides still pick the lex-first quorum of
	// an unchanged suspect graph), so each side starts in the view of
	// "its" quorum, with heartbeats off to keep the failure detector
	// (and hence selection) quiet.
	mq := sys.MinQuorums()
	pair, ok := disjointPair(mq)
	if !ok {
		v = &Violation{Seed: seed, Checker: "unsafe-spec-config",
			Detail: "spec rejected by checker but no enumerable disjoint quorum pair to force"}
		v.Dump = r.gateDump(seed, v)
		return v, v.Dump
	}
	viewA, viewB := quorumViewIndex(mq, pair[0]), quorumViewIndex(mq, pair[1])
	r.sideA = ids.FromSlice(pair[0])
	n := sys.N()
	r.idsCfg = ids.MustConfig(n, 1)
	r.nodes = make(map[ids.ProcessID]*core.Node, n)
	r.replicas = make(map[ids.ProcessID]*xpaxos.Replica, n)

	// The fault: drop every cross-side frame until HealAt. Pure
	// function of (from, to, now) — identical on every replay.
	sideA := r.sideA
	filter := sim.FilterFunc(func(from, to ids.ProcessID, m wire.Message, now time.Duration) sim.Verdict {
		if now < cfg.HealAt && sideA.Contains(from) != sideA.Contains(to) {
			return sim.Verdict{Drop: true}
		}
		return sim.Verdict{}
	})

	cl := cluster.New(r.idsCfg, 1, func(at cluster.Site) cluster.Member {
		view := uint64(viewB)
		if r.sideA.Contains(at.Proc) {
			view = uint64(viewA)
		}
		nodeOpts := core.DefaultNodeOptions()
		nodeOpts.HeartbeatPeriod = 0
		nodeOpts.Quorum = sys
		node, rep := xpaxos.NewQSNode(xpaxos.Options{InitialView: view}, nodeOpts)
		r.nodes[at.Proc] = node
		r.replicas[at.Proc] = rep
		return cluster.Member{Node: node, History: rep.Executions}
	}, sim.Options{
		Metrics: cfg.Metrics,
		Seed:    seed,
		Latency: cluster.LAN,
		Filter:  filter,
		Auth:    crypto.NewHMACRing(r.idsCfg, []byte("chaos-master")),
		Events:  r.bus,
	})
	net := cl.Net
	defer net.Close()

	leaderA, leaderB := pair[0][0], pair[1][0]
	// While partitioned, each side's quorum certifies its own slot 1.
	net.At(5*time.Millisecond, func() {
		r.replicas[leaderA].Submit(&wire.Request{Client: 100, Seq: 1, Op: []byte("set side A1")})
	})
	net.At(5*time.Millisecond, func() {
		r.replicas[leaderB].Submit(&wire.Request{Client: 300, Seq: 1, Op: []byte("set side B1")})
	})
	// After the heal, side A commits slot 2; its commit certificate —
	// signed only by side A's quorum — reaches side B, whose replicas
	// accept it through System.IsQuorum: the wire-level proof that the
	// cert path trusts whatever the spec calls a quorum.
	net.At(cfg.SettleAt, func() {
		r.replicas[leaderA].Submit(&wire.Request{Client: 100, Seq: 2, Op: []byte("set side A2")})
	})
	net.Run(cfg.Horizon)

	// Expected evidence, in order of strength: both disjoint quorums
	// certified slot 1 (divergent histories), and side B adopted side
	// A's slot-2 certificate across the healed link.
	if err := cl.HistoriesAgree(0); err != nil {
		v = &Violation{Seed: seed, Checker: "unsafe-spec-history", At: net.Now(), Detail: err.Error()}
	}
	dump := ""
	if v != nil || alwaysDump {
		dump = r.forceDump(seed, v, pair)
	}
	if v != nil {
		v.Dump = dump
	}
	return v, dump
}

// disjointPair returns the lexicographically-first pair of disjoint
// minimal quorums.
func disjointPair(mq [][]ids.ProcessID) ([2][]ids.ProcessID, bool) {
	for i := 0; i < len(mq); i++ {
		a := ids.FromSlice(mq[i])
		for j := i + 1; j < len(mq); j++ {
			if a.Intersect(ids.FromSlice(mq[j])).Empty() {
				return [2][]ids.ProcessID{mq[i], mq[j]}, true
			}
		}
	}
	return [2][]ids.ProcessID{}, false
}

func quorumViewIndex(mq [][]ids.ProcessID, q []ids.ProcessID) int {
	want := ids.NewQuorum(q)
	for i, m := range mq {
		if ids.NewQuorum(m).Equal(want) {
			return i
		}
	}
	return 0
}

// gateDump renders the checker-only evidence.
func (r *unsafeSpecRun) gateDump(seed int64, v *Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos-unsafe-spec: seed=%d spec=%q force=%v\n", seed, r.cfg.Spec, r.cfg.Force)
	for _, rep := range r.reports {
		fmt.Fprintf(&b, "  %s\n", rep)
	}
	if v != nil {
		fmt.Fprintf(&b, "violation: checker=%s\n  %s\n", v.Checker, v.Detail)
	} else {
		b.WriteString("no violation: checker rejected the spec before boot\n")
	}
	return b.String()
}

// forceDump renders the full forced-run evidence: checker verdicts, the
// staged disjoint quorums, per-replica end state (including the active
// spec each node's kernel reports), and the event-stream tail — all
// virtual-time deterministic, byte-identical per seed.
func (r *unsafeSpecRun) forceDump(seed int64, v *Violation, pair [2][]ids.ProcessID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos-unsafe-spec: seed=%d spec=%q force=true\n", seed, r.cfg.Spec)
	for _, rep := range r.reports {
		fmt.Fprintf(&b, "  %s\n", rep)
	}
	fmt.Fprintf(&b, "schedule:\n  disjoint quorums %s | %s partitioned until %s; cross-cert request at %s\n",
		ids.NewQuorum(pair[0]), ids.NewQuorum(pair[1]), r.cfg.HealAt, r.cfg.SettleAt)
	if v != nil {
		fmt.Fprintf(&b, "violation: checker=%s at=%s\n  %s\n", v.Checker, v.At, v.Detail)
	} else {
		b.WriteString("no violation (forced unsafe spec failed to fork — scenario bug)\n")
	}
	b.WriteString("replicas:\n")
	for _, p := range r.idsCfg.All() {
		rep := r.replicas[p]
		spec := "<none>"
		if sys := r.nodes[p].QuorumSystem(); sys != nil {
			spec = sys.String()
		}
		fmt.Fprintf(&b, "  %s: view=%d active=%s executed=%d spec=%q\n",
			p, rep.View(), rep.ActiveQuorum(), rep.LastExecuted(), spec)
		for _, e := range rep.Executions() {
			fmt.Fprintf(&b, "    slot=%d client=%d seq=%d\n", e.Slot, e.Client, e.Seq)
		}
	}
	writeEventTail(&b, r.bus)
	return b.String()
}

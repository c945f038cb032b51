// Package chaos is a seeded, fully deterministic scenario fuzzer for
// the quorum-selection stack. From a single int64 seed a preset's
// generator derives a complete schedule — faults, workload, timing and
// checkers (GenerateScenario for the default preset) — and one runner
// executes it against a simulated cluster of any supported protocol
// composition, checking a suite of pluggable safety and liveness
// invariants on every shard while the faults play out. Because every
// source of randomness flows from the seed and the simulator is
// single-threaded, a violating seed replays byte-for-byte: Run reports
// the first bad seed, and Replay reproduces its full trace dump on
// demand.
package chaos

import (
	"fmt"
	"strings"
	"time"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/quorum"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// probeClient is the reserved client id for post-fault liveness probes;
// workload clients are small integers, so it can never collide.
const probeClient uint64 = 0xC4A05

// probeCount is how many liveness probes are submitted per shard once
// faults settle.
const probeCount = 4

// Dump size bounds: the tail of each stream is what localizes a
// violation; unbounded dumps would bury it.
const (
	dumpEvents = 200
	dumpStory  = 120 // events without EXPECT
	dumpSpans  = 120
)

// Config parameterizes a chaos campaign.
type Config struct {
	// N, F are the cluster parameters (default 4, 1).
	N, F int
	// Protocol selects the composition under test (default ProtocolQS;
	// the sharded-partition and unsafe-spec presets always run
	// ProtocolXPaxos).
	Protocol Protocol
	// Preset selects the schedule generator (default PresetGenerated).
	Preset Preset
	// Faults restricts the fault classes PresetGenerated draws from
	// (default: all).
	Faults []FaultClass
	// Shards is how many independent groups every process runs (default
	// 1; 3 for PresetShardedPartition, which needs at least 2). Every
	// invariant is checked per shard, and durable members keep each
	// shard in its own storage sub-tree.
	Shards int
	// Spec is the quorum spec PresetUnsafeSpec attacks (default
	// DefaultUnsafeSpec); Force boots a cluster on it past the gate.
	Spec  string
	Force bool
	// Seeds is how many consecutive seeds Run executes (default 1).
	Seeds int
	// FirstSeed is the first seed of the campaign.
	FirstSeed int64
	// BatchSize is the replica batch size for batching protocols
	// (default 1).
	BatchSize int
	// Window bounds the XPaxos leader's in-flight pipeline (0 =
	// unbounded, the unwindowed behavior; default 8 for
	// PresetShardedPartition). Other protocols ignore it.
	Window int
	// Reorder disables the simulator's per-link FIFO clamp so messages
	// on one link may overtake each other — the schedule a pipelined
	// commit path must tolerate (COMMIT before PREPARE, slots out of
	// order).
	Reorder bool
	// TamperHistory, when set, rewrites a replica's execution history
	// before the checkers see it. Test-only: it exists so the harness's
	// own tests can inject an agreement bug and prove the fuzzer catches
	// it.
	TamperHistory func(p ids.ProcessID, h []xpaxos.Execution) []xpaxos.Execution
	// Metrics, when set, receives every run's metrics (message
	// accounting, protocol counters, span/event drop gauges). Shared
	// across the seeds of a sweep; nil keeps accounting private to the
	// run.
	Metrics *metrics.Registry
	// TamperSkipSync, when set, makes every member's storage backend
	// acknowledge fsyncs without making the writes durable. Test-only:
	// a hard crash then loses acknowledged state, and the
	// crash-recovery checker must catch the shortened history — proof
	// the harness would notice a protocol that skips its
	// persist-before-act barrier.
	TamperSkipSync bool
	// Topology, when set, replaces the default LAN latency band with a
	// WAN topology's link model (its partition windows chain in front of
	// the generated fault filter) and scales failure-detector timeouts
	// to the worst one-way delay, so chaos campaigns run against the
	// same region geometry the load generator uses.
	Topology *sim.BoundTopology
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N, c.F = 4, 1
	}
	if c.Protocol == "" {
		c.Protocol = ProtocolQS
	}
	switch c.Preset {
	case PresetShardedPartition:
		c.Protocol = ProtocolXPaxos
		if c.Shards == 0 {
			c.Shards = 3
		}
		c.Shards = max(c.Shards, 2)
		if c.Window == 0 {
			c.Window = 8
		}
	case PresetUnsafeSpec:
		c.Protocol = ProtocolXPaxos
		if c.Spec == "" {
			c.Spec = DefaultUnsafeSpec
		}
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Seeds == 0 {
		c.Seeds = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	return c
}

// Violation is one invariant breach, pinned to the seed that reproduces
// it.
type Violation struct {
	Seed    int64
	Checker string
	At      time.Duration
	Detail  string
	// Dump is the replayable evidence: fault schedule, violation, and
	// the tails of the observability and trace streams. It is
	// byte-identical across replays of the same seed.
	Dump string
	// Flight is the flight-recorder dump (obs.Dump JSON): the
	// retained causal spans and protocol events of the violating run.
	// Span identifiers are node-prefixed sequence numbers and all
	// timestamps are virtual, so it too is byte-identical across
	// replays of the same seed. Nil when the run never booted.
	Flight []byte
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("chaos: seed %d violates %s at %s: %s", v.Seed, v.Checker, v.At, v.Detail)
}

// Result summarizes a campaign.
type Result struct {
	// Seeds is how many seeds actually executed (the campaign stops at
	// the first violation).
	Seeds int
	// Violation is the first breach found, nil if every seed passed.
	Violation *Violation
}

// Run executes cfg.Seeds consecutive seeds starting at cfg.FirstSeed
// and stops at the first invariant violation, returning it with a
// replayable dump.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	for i := 0; i < cfg.Seeds; i++ {
		if v, _, _ := runSeed(cfg, cfg.FirstSeed+int64(i), false); v != nil {
			return Result{Seeds: i + 1, Violation: v}
		}
	}
	return Result{Seeds: cfg.Seeds}
}

// RunSeed executes one seed and returns its violation, if any.
func RunSeed(cfg Config, seed int64) *Violation {
	v, _, _ := runSeed(cfg.withDefaults(), seed, false)
	return v
}

// Replay executes one seed and returns the full trace dump regardless
// of outcome — the reproduction path for a seed Run reported.
func Replay(cfg Config, seed int64) (string, *Violation) {
	dump, _, v := ReplayDump(cfg, seed)
	return dump, v
}

// ReplayDump is Replay plus the flight-recorder dump: the text trace,
// the obs.Dump JSON (spans and protocol events), and the violation,
// if any. Both dumps are byte-identical across replays of one seed.
func ReplayDump(cfg Config, seed int64) (string, []byte, *Violation) {
	v, dump, flight := runSeed(cfg.withDefaults(), seed, true)
	return dump, flight, v
}

// RunState is the live run handed to checkers: the scenario being
// injected, the cluster under test, the shard being checked, and the
// harness's own bookkeeping.
type RunState struct {
	Config   Config
	Scenario *Scenario
	seed     int64
	cfg      ids.Config
	// shard is the group the checkers are evaluating: they read host,
	// history, HistoriesAgree and Executed at it.
	shard   int
	cluster *cluster.Cluster
	bus     *obs.Bus // the run's one stream, spans on
	// gate holds the spec gate's reports (PresetUnsafeSpec only).
	gate []quorum.Report
	// probes is how many liveness probes went out per shard (0 until
	// PhaseSettled).
	probes int
	// preCrash freezes each restarted durable member's execution history,
	// per shard, at the moment it crashed. Every execution is persisted
	// before it happens (persist-before-act), so the recovered member
	// must come back with at least this prefix — the crash-recovery
	// checker's ground truth.
	preCrash map[ids.ProcessID][][]xpaxos.Execution
}

// host returns p's live kernel in the checked shard: every chaos
// composition is a core.Node, and after a restart the cluster holds the
// rebuilt one.
func (r *RunState) host(p ids.ProcessID) *host.Host {
	return r.cluster.Member(p, r.shard).Node.(*core.Node).Host
}

// history returns p's replicated history in shard as the checkers
// should see it (the member builder applies the test-only tamper hook).
func (r *RunState) history(p ids.ProcessID, shard int) []xpaxos.Execution {
	if h := r.cluster.Member(p, shard).History; h != nil {
		return h()
	}
	return nil
}

// submit hands a request to shard: at the named process, or, when at
// is 0, to the first correct running member — the stand-in for a
// client that retries against a live replica.
func (r *RunState) submit(shard int, at ids.ProcessID, req *wire.Request) {
	if at != 0 {
		r.cluster.Member(at, shard).Submit(req)
		return
	}
	r.cluster.Submit(shard, req, r.Scenario.Faulty)
}

// runSeed generates one seed's schedule, executes it, checks it, and
// renders the dump.
func runSeed(cfg Config, seed int64, alwaysDump bool) (*Violation, string, []byte) {
	rs := &RunState{Config: cfg, seed: seed, cfg: ids.MustConfig(cfg.N, cfg.F),
		preCrash: make(map[ids.ProcessID][][]xpaxos.Execution)}
	sch, violation := rs.generate()
	if sch != nil {
		violation = rs.execute(sch)
		defer rs.cluster.Net.Close()
	}

	var dump string
	var flight []byte
	if violation != nil || alwaysDump {
		dump = rs.dump(violation)
		if rs.cluster != nil {
			reason := fmt.Sprintf("chaos replay seed=%d", seed)
			if violation != nil {
				reason = fmt.Sprintf("chaos violation seed=%d checker=%s at=%s",
					seed, violation.Checker, violation.At)
			}
			flight = obs.Capture(reason, rs.bus).JSON()
		}
	}
	if violation != nil {
		violation.Dump = dump
		violation.Flight = flight
	}
	return violation, dump, flight
}

// execute boots the cluster and plays sch on it: crashes, workload,
// then virtual time in slices with the checkers evaluated on every
// shard at every boundary. One slice is promoted to PhaseSettled once
// faults are over, which also launches the liveness probes.
func (r *RunState) execute(sch *schedule) *Violation {
	run := r.Config
	r.Scenario = sch.Scenario
	r.boot(sch)
	cl := r.cluster

	// Crash/restart churn, on the virtual clock. A crash that will
	// restart freezes the member's histories first: the recovered
	// process must extend them (crash-recovery checker).
	for _, plan := range sch.Crashes {
		plan := plan
		p := plan.Proc
		cl.Net.At(plan.At, func() {
			if plan.RestartAt > 0 && run.Protocol.durable() {
				r.preCrash[p] = make([][]xpaxos.Execution, run.Shards)
				for s := range r.preCrash[p] {
					r.preCrash[p][s] = r.history(p, s)
				}
			}
			cl.Crash(p, plan.Hard)
		})
		if plan.RestartAt > 0 {
			cl.Net.At(plan.RestartAt, func() { cl.Restart(p) })
		}
	}
	for _, sub := range sch.submits {
		sub := sub
		cl.Net.At(sub.at, func() { r.submit(sub.shard, sub.entry, sub.req) })
	}

	// Stateful checkers snapshot per shard, so each shard gets its own
	// suite.
	suites := make([][]Checker, run.Shards)
	for s := range suites {
		suites[s] = append(defaultCheckers(run.Protocol), sch.checkers...)
	}
	var violation *Violation
	settled := false
	for t := sch.slice; violation == nil && t <= sch.horizon; t += sch.slice {
		cl.Net.Run(t)
		phase := PhaseOnline
		if !settled && sch.settle > 0 && t >= sch.settle {
			settled = true
			phase = PhaseSettled
			if run.Protocol.checksLiveness() {
				for s := 0; s < run.Shards; s++ {
					for i := 1; i <= probeCount; i++ {
						r.submit(s, sch.probeAt, &wire.Request{
							Client: probeClient,
							Seq:    uint64(i),
							Op:     []byte(fmt.Sprintf("set probe p%d", i)),
						})
					}
				}
				r.probes = probeCount
			}
		}
		violation = r.check(suites, phase)
	}
	if violation == nil {
		violation = r.check(suites, PhaseFinal)
	}

	// Observability loss accounting: how much of the bounded stream the
	// run evicted (non-zero drops mean the dumps are tails).
	cl.Net.Metrics().SetGauge("obs.bus.dropped", float64(r.bus.Dropped()))
	return violation
}

// check evaluates every shard's suite and converts the first failure
// into a Violation.
func (r *RunState) check(suites [][]Checker, phase Phase) *Violation {
	for s, suite := range suites {
		r.shard = s
		for _, ch := range suite {
			err := ch.Check(r, phase)
			if err == nil {
				continue
			}
			detail := err.Error()
			if len(suites) > 1 {
				detail = fmt.Sprintf("shard %d: %s", s, detail)
			}
			return &Violation{Seed: r.seed, Checker: ch.Name(), At: r.cluster.Net.Now(), Detail: detail}
		}
	}
	return nil
}

// dump renders the replayable evidence for a run. Everything in it is a
// function of the seed — virtual timestamps, deterministic event
// strings, a seeded spec sampler — so two replays of the same seed
// produce identical bytes.
func (r *RunState) dump(v *Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: protocol=%s seed=%d n=%d f=%d", r.Config.Protocol, r.seed, r.Config.N, r.Config.F)
	if r.Config.Shards > 1 {
		fmt.Fprintf(&b, " shards=%d", r.Config.Shards)
	}
	if r.Config.Preset == PresetUnsafeSpec {
		fmt.Fprintf(&b, " spec=%q force=%v", r.Config.Spec, r.Config.Force)
	}
	b.WriteByte('\n')
	for _, rep := range r.gate {
		fmt.Fprintf(&b, "  %s\n", rep)
	}
	if r.Scenario != nil {
		b.WriteString("schedule:\n")
		for _, d := range r.Scenario.Desc {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	}
	if v != nil {
		fmt.Fprintf(&b, "violation: checker=%s at=%s\n  %s\n", v.Checker, v.At, v.Detail)
	} else {
		b.WriteString("no violation\n")
	}
	if r.cluster == nil {
		return b.String()
	}
	if r.Config.Shards > 1 || r.gate != nil {
		b.WriteString("shards (last executed slot):\n")
		for s := 0; s < r.Config.Shards; s++ {
			fmt.Fprintf(&b, "  shard %d:", s)
			for _, p := range r.cfg.All() {
				last := uint64(0)
				if h := r.history(p, s); len(h) > 0 {
					last = h[len(h)-1].Slot
				}
				fmt.Fprintf(&b, " %s:%d", p, last)
			}
			b.WriteByte('\n')
		}
	}
	evs := last(r.bus.Events(), dumpEvents)
	fmt.Fprintf(&b, "events (last %d):\n", len(evs))
	for _, e := range evs {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	// Without the one per-message type, the bus is the sparse protocol
	// story: suspicions, quorum changes, view changes, epochs.
	var story []obs.Event
	for _, e := range r.bus.Events() {
		if e.Type != obs.TypeExpect {
			story = append(story, e)
		}
	}
	story = last(story, dumpStory)
	fmt.Fprintf(&b, "events without EXPECT (last %d):\n", len(story))
	for _, e := range story {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	spans := last(r.bus.Spans(), dumpSpans)
	fmt.Fprintf(&b, "spans (last %d):\n", len(spans))
	for _, s := range spans {
		fmt.Fprintf(&b, "  %s node=%s trace=%x id=%x parent=%x start=%s dur=%s slot=%d view=%d\n",
			s.Name, s.Node, s.Trace, s.ID, s.Parent, s.Start, s.Dur, s.Slot, s.View)
	}
	return b.String()
}

// last returns the final n elements of s (all of s if it is shorter).
func last[T any](s []T, n int) []T {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

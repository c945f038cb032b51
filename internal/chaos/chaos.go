// Package chaos is a seeded, fully deterministic scenario fuzzer for
// the quorum-selection stack. From a single int64 seed it derives a
// complete fault schedule (GenerateScenario), executes it against a
// simulated cluster of any supported protocol composition, and checks a
// suite of pluggable safety and liveness invariants online while the
// faults play out. Because every source of randomness flows from the
// seed and the simulator is single-threaded, a violating seed replays
// byte-for-byte: Run reports the first bad seed, and Replay reproduces
// its full trace dump on demand.
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
	"quorumselect/internal/obs/tracer"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// probeClient is the reserved client id for post-fault liveness probes;
// workload clients are small integers, so it can never collide.
const probeClient uint64 = 0xC4A05

// probeCount is how many liveness probes are submitted once faults
// settle.
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
	// Protocol selects the composition under test (default ProtocolQS).
	Protocol Protocol
	// Faults restricts the fault classes the generator draws from
	// (default: all).
	Faults []FaultClass
	// Seeds is how many consecutive seeds Run executes (default 1).
	Seeds int
	// FirstSeed is the first seed of the campaign.
	FirstSeed int64
	// BatchSize is the replica batch size for batching protocols
	// (default 1).
	BatchSize int
	// Window bounds the XPaxos leader's in-flight pipeline (0 =
	// unbounded, the unwindowed behavior). Other protocols ignore it.
	Window int
	// Reorder disables the simulator's per-link FIFO clamp so messages
	// on one link may overtake each other — the schedule a pipelined
	// commit path must tolerate (COMMIT before PREPARE, slots out of
	// order).
	Reorder bool
	// Requests is the workload size submitted while faults are active
	// (default 30; ignored for the core-only protocol).
	Requests int
	// FaultEnd is when every generated fault window has closed (default
	// 8s). Settle is when suspicions are assumed stable and liveness
	// probes go out (default 18s); Horizon ends the run (default 28s).
	// Slice is the online-checker cadence (default 500ms).
	FaultEnd, Settle, Horizon, Slice time.Duration
	// Checkers overrides the protocol's default invariant suite.
	Checkers []Checker
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
	if c.Seeds == 0 {
		c.Seeds = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	if c.Requests == 0 {
		c.Requests = 30
	}
	if c.FaultEnd == 0 {
		c.FaultEnd = 8 * time.Second
	}
	if c.Settle == 0 {
		c.Settle = 18 * time.Second
	}
	if c.Horizon == 0 {
		c.Horizon = 28 * time.Second
	}
	if c.Slice == 0 {
		c.Slice = 500 * time.Millisecond
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
	// Flight is the flight-recorder dump (tracer.Dump JSON): the
	// retained causal spans and protocol events of the violating run.
	// Span identifiers are node-prefixed sequence numbers and all
	// timestamps are virtual, so it too is byte-identical across
	// replays of the same seed.
	Flight []byte
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("chaos: seed %d violates %s at %s: %s", v.Seed, v.Checker, v.At, v.Detail)
}

// Result summarizes a campaign.
type Result struct {
	Protocol Protocol
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
	return runSeeds(cfg.Protocol, cfg.FirstSeed, cfg.Seeds, func(seed int64) *Violation {
		v, _, _ := runSeed(cfg, seed, false)
		return v
	})
}

// runSeeds is the campaign loop every scenario shares: it runs seeds
// consecutive seeds from first and stops at the first violation.
func runSeeds(protocol Protocol, first int64, seeds int, run func(seed int64) *Violation) Result {
	for i := 0; i < seeds; i++ {
		if v := run(first + int64(i)); v != nil {
			return Result{Protocol: protocol, Seeds: i + 1, Violation: v}
		}
	}
	return Result{Protocol: protocol, Seeds: seeds}
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
// the tracer.Dump JSON (spans and protocol events), and the violation,
// if any. Both dumps are byte-identical across replays of one seed.
func ReplayDump(cfg Config, seed int64) (string, []byte, *Violation) {
	v, dump, flight := runSeed(cfg.withDefaults(), seed, true)
	return dump, flight, v
}

// RunState is the live run handed to checkers: the scenario being
// injected, the cluster under test, and the harness's own bookkeeping.
type RunState struct {
	Config   Config
	Scenario *Scenario
	cfg      ids.Config
	cluster  *cluster.Cluster
	bus      *obs.Bus
	spans    *tracer.Tracer
	// probes is how many liveness probes went out (0 until PhaseSettled).
	probes int
	// preCrash freezes each restarted durable member's execution history
	// at the moment it crashed. Every execution is persisted before it
	// happens (persist-before-act), so the recovered member must come
	// back with at least this prefix — the crash-recovery checker's
	// ground truth.
	preCrash map[ids.ProcessID][]xpaxos.Execution
}

// host returns p's live kernel: every chaos composition is a core.Node,
// and after a restart the cluster holds the rebuilt one.
func (r *RunState) host(p ids.ProcessID) *host.Host {
	return r.cluster.Member(p, 0).Node.(*core.Node).Host
}

// history returns p's replicated history as the checkers should see it
// (the member builder applies the test-only tamper hook).
func (r *RunState) history(p ids.ProcessID) []xpaxos.Execution {
	if h := r.cluster.Member(p, 0).History; h != nil {
		return h()
	}
	return nil
}

// submit hands a request to the first correct running member — the
// stand-in for a client that retries against a live replica.
func (r *RunState) submit(req *wire.Request) {
	r.cluster.Submit(0, req, r.Scenario.Faulty)
}

// runSeed generates, executes, and checks one scenario.
func runSeed(cfg Config, seed int64, alwaysDump bool) (*Violation, string, []byte) {
	idsCfg := ids.MustConfig(cfg.N, cfg.F)
	sc := GenerateScenario(idsCfg, seed, cfg.Faults, cfg.Protocol.restartable(), cfg.FaultEnd)
	rs := &RunState{Config: cfg, Scenario: sc, cfg: idsCfg,
		preCrash: make(map[ids.ProcessID][]xpaxos.Execution)}
	rs.boot(seed)
	cl := rs.cluster
	defer cl.Net.Close()
	checkers := cfg.Checkers
	if checkers == nil {
		checkers = defaultCheckers(cfg.Protocol)
	}

	// Crash/restart churn from the scenario, on the virtual clock. A
	// crash that will restart freezes the member's history first: the
	// recovered process must extend it (crash-recovery checker).
	for _, plan := range sc.Crashes {
		plan := plan
		p := plan.Proc
		cl.Net.At(plan.At, func() {
			if plan.RestartAt > 0 && cfg.Protocol.durable() {
				rs.preCrash[p] = rs.history(p)
			}
			cl.Crash(p, plan.Hard)
		})
		if plan.RestartAt > 0 {
			cl.Net.At(plan.RestartAt, func() { cl.Restart(p) })
		}
	}

	// Workload, spread across the fault window so requests commit while
	// links drop, frames mutate, and processes churn.
	if cfg.Protocol.smr() && cfg.Requests > 0 {
		gap := cfg.FaultEnd / time.Duration(cfg.Requests+1)
		for i := 1; i <= cfg.Requests; i++ {
			req := &wire.Request{
				Client: uint64(1 + (i-1)%3),
				Seq:    uint64(1 + (i-1)/3),
				Op:     []byte(fmt.Sprintf("set k%d v%d", i, i)),
			}
			cl.Net.At(time.Duration(i)*gap, func() { rs.submit(req) })
		}
	}

	// Drive virtual time in slices, evaluating checkers at every
	// boundary; one slice is promoted to PhaseSettled once faults are
	// over, which also launches the liveness probes.
	var violation *Violation
	settled := false
	for t := cfg.Slice; violation == nil && t <= cfg.Horizon; t += cfg.Slice {
		cl.Net.Run(t)
		phase := PhaseOnline
		if !settled && t >= cfg.Settle {
			settled = true
			phase = PhaseSettled
			if cfg.Protocol.checksLiveness() {
				for i := 1; i <= probeCount; i++ {
					rs.submit(&wire.Request{
						Client: probeClient,
						Seq:    uint64(i),
						Op:     []byte(fmt.Sprintf("set probe p%d", i)),
					})
				}
				rs.probes = probeCount
			}
		}
		violation = runCheckers(checkers, rs, phase, seed)
	}
	if violation == nil {
		violation = runCheckers(checkers, rs, PhaseFinal, seed)
	}

	// Observability loss accounting: how much of each bounded stream the
	// run evicted (non-zero drops mean the dumps below are tails).
	reg := cl.Net.Metrics()
	reg.SetGauge("obs.bus.dropped", float64(rs.bus.Dropped()))
	reg.SetGauge("tracer.ring.dropped", float64(rs.spans.Dropped()))

	var dump string
	var flight []byte
	if violation != nil || alwaysDump {
		dump = rs.dump(violation)
		reason := fmt.Sprintf("chaos replay seed=%d", seed)
		if violation != nil {
			reason = fmt.Sprintf("chaos violation seed=%d checker=%s at=%s",
				seed, violation.Checker, violation.At)
		}
		flight = tracer.Capture(reason, rs.spans, rs.bus).JSON()
	}
	if violation != nil {
		violation.Dump = dump
		violation.Flight = flight
	}
	return violation, dump, flight
}

// runCheckers evaluates the suite and converts the first failure into a
// Violation.
func runCheckers(checkers []Checker, rs *RunState, phase Phase, seed int64) *Violation {
	for _, ch := range checkers {
		if err := ch.Check(rs, phase); err != nil {
			return &Violation{
				Seed:    seed,
				Checker: ch.Name(),
				At:      rs.cluster.Net.Now(),
				Detail:  err.Error(),
			}
		}
	}
	return nil
}

// dump renders the replayable evidence for a run. Everything in it is a
// function of the seed — virtual timestamps, deterministic event
// strings — so two replays of the same seed produce identical bytes.
func (r *RunState) dump(v *Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: protocol=%s seed=%d n=%d f=%d\n",
		r.Config.Protocol, r.Scenario.Seed, r.Config.N, r.Config.F)
	b.WriteString("schedule:\n")
	for _, d := range r.Scenario.Desc {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	if v != nil {
		fmt.Fprintf(&b, "violation: checker=%s at=%s\n  %s\n", v.Checker, v.At, v.Detail)
	} else {
		b.WriteString("no violation\n")
	}
	writeEventTail(&b, r.bus)
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
	spans := last(r.spans.Spans(), dumpSpans)
	fmt.Fprintf(&b, "spans (last %d):\n", len(spans))
	for _, s := range spans {
		fmt.Fprintf(&b, "  %s node=%s trace=%x id=%x parent=%x start=%s dur=%s slot=%d view=%d\n",
			s.Name, s.Node, s.Trace, s.ID, s.Parent, s.Start, s.Dur, s.Slot, s.View)
	}
	return b.String()
}

// writeEventTail appends the last dumpEvents events of bus to a dump.
func writeEventTail(b *strings.Builder, bus *obs.Bus) {
	evs := last(bus.Events(), dumpEvents)
	fmt.Fprintf(b, "events (last %d):\n", len(evs))
	for _, e := range evs {
		fmt.Fprintf(b, "  %s\n", e)
	}
}

// last returns the final n elements of s (all of s if it is shorter).
func last[T any](s []T, n int) []T {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

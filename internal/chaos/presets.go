package chaos

import (
	"fmt"
	"time"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/quorum"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// shardedPartition is PresetShardedPartition. Shard leaders are
// staggered across the leadable heads of the quorum enumeration, exactly
// as a fleet deployment does, so the partitioned process also leads
// another shard: it is unreachable for shard 0 and a committing leader
// elsewhere at the same time. Every live shard gets its workload at its
// leader while the partition is open; probes go in at a non-leader
// after the heal, so they exercise forwarding under whatever quorum each
// shard settled on.
func (r *RunState) shardedPartition() *schedule {
	const (
		requests    = 10 // per live shard
		from, until = 1 * time.Second, 9 * time.Second
	)
	shards := r.Config.Shards
	views := make([]uint64, shards)
	leaders := make([]ids.ProcessID, shards)
	leadable := r.cfg.N - r.cfg.Q() + 1
	for s := range leaders {
		p := ids.ProcessID(s%leadable + 1)
		v, ok := xpaxos.FirstViewLedBy(r.cfg, p)
		if !ok {
			panic(fmt.Sprintf("chaos: no view led by %s", p))
		}
		views[s], leaders[s] = v, p
	}
	victim := leaders[0]
	sch := &schedule{
		Scenario: &Scenario{
			Seed:     r.seed,
			Faulty:   ids.NewProcSet(victim),
			FaultEnd: until,
			// A pure function of (from, to, frame, now), so the schedule is
			// identical on every replay of the seed.
			Filter: sim.FilterFunc(func(src, dst ids.ProcessID, m wire.Message, now time.Duration) sim.Verdict {
				env, ok := m.(*wire.ShardEnvelope)
				cut := now >= from && now < until && (src == victim || dst == victim) && ok && env.Shard == 0
				return sim.Verdict{Drop: cut}
			}),
			Desc: []string{fmt.Sprintf("shard 0 leader %s: shard-0 envelopes dropped in [%s,%s)", victim, from, until)},
		},
		probeAt: ids.ProcessID(r.cfg.N),
		site: func(at cluster.Site, _ *core.NodeOptions, xo *xpaxos.Options) {
			xo.InitialView = views[at.Shard]
		},
		settle:   18 * time.Second,
		horizon:  26 * time.Second,
		slice:    500 * time.Millisecond,
		checkers: []Checker{commitsThroughPartition{heal: until, requests: requests}},
	}
	gap := (until - from - until/10) / (requests + 1)
	for s := 1; s < shards; s++ {
		for i := 1; i <= requests; i++ {
			sch.submits = append(sch.submits, submission{at: from + time.Duration(i)*gap, shard: s, entry: leaders[s],
				req: &wire.Request{Client: uint64(100 + s), Seq: uint64(i), Op: []byte(fmt.Sprintf("set s%dk%d v%d", s, i, i))}})
		}
	}
	return sch
}

// commitsThroughPartition is the sharded-partition invariant: when the
// partition heals, every shard but the cut-off shard 0 has committed
// its whole workload.
type commitsThroughPartition struct {
	heal     time.Duration
	requests int
}

func (commitsThroughPartition) Name() string { return "sharded-liveness" }

func (c commitsThroughPartition) Check(r *RunState, _ Phase) error {
	if r.shard == 0 || r.cluster.Net.Now() != c.heal {
		return nil
	}
	if got, _ := r.cluster.Executed(r.shard, uint64(100+r.shard)); got < c.requests {
		return fmt.Errorf("committed %d/%d requests while shard 0's leader was partitioned", got, c.requests)
	}
	return nil
}

// DefaultUnsafeSpec is an intersection-violating slice spec: p1 and p2
// rely only on each other, as do p3 and p4. Its minimal quorums are the
// DISJOINT pair {p1,p2} and {p3,p4} — a split-brain configuration the
// checker must reject before any node boots on it.
const DefaultUnsafeSpec = "slices:n=4;1={2};2={1};3={4};4={3}"

// unsafeSpec is PresetUnsafeSpec. Its gate runs the exact intersection
// checker and the seeded randomized sampler (forced via MaxExactN=-1 so
// replays exercise the randomized path deterministically) against the
// spec; both reports go in the dump. A checker that accepts the spec is
// the violation. Without Force, a rejected spec ends the run there,
// successfully.
//
// With Force the cluster boots on the spec with the two lex-first
// disjoint quorums active on either side of a partition. The fork must
// be staged through initial views — a partition alone does not move the
// selector (both sides still pick the lex-first quorum of an unchanged
// suspect graph) — with heartbeats off to keep the failure detector,
// and hence selection, quiet. Both sides certify their own slot 1;
// after the heal side A commits slot 2, and its certificate, signed
// only by side A's quorum, is accepted by side B through
// System.IsQuorum. The expected outcome is a history-agreement
// violation: proof that the spec the checker rejects really forks the
// log. The run is checked once, at its horizon.
func (r *RunState) unsafeSpec() (*schedule, *Violation) {
	const (
		samples = 2048 // a disjoint bipartition of the default spec is hit with probability 1/8 per sample
		healAt  = 60 * time.Millisecond
		crossAt = 75 * time.Millisecond
		horizon = 200 * time.Millisecond
	)
	spec := r.Config.Spec
	fail := func(checker, format string, args ...any) (*schedule, *Violation) {
		return nil, &Violation{Seed: r.seed, Checker: checker, Detail: fmt.Sprintf(format, args...)}
	}
	sys, err := quorum.ParseSpec(spec)
	if err != nil {
		return fail("unsafe-spec-config", "spec does not parse: %v", err)
	}
	exact := quorum.Check(sys, quorum.CheckOptions{Faults: r.cfg.F})
	sampled := quorum.Check(sys, quorum.CheckOptions{
		MaxExactN: -1, Samples: samples, Seed: uint64(r.seed), Faults: r.cfg.F})
	r.gate = []quorum.Report{exact, sampled}
	switch {
	case exact.Err() == nil:
		// The exact checker is ground truth at these sizes: a spec it
		// calls safe has no disjoint quorums to demonstrate.
		return fail("unsafe-spec-config", "spec %q is safe (exact checker found no disjoint quorums); the unsafe-spec scenario needs an intersection-violating spec", spec)
	case sampled.Err() == nil:
		return fail("unsafe-spec-checker", "seeded sampler accepted a spec the exact checker rejects (%v)", exact.Err())
	case !r.Config.Force:
		return nil, nil
	case sys.N() != r.cfg.N:
		return fail("unsafe-spec-config", "spec has n=%d, the run n=%d", sys.N(), r.cfg.N)
	}
	mq := sys.MinQuorums()
	pair, ok := disjointPair(mq)
	if !ok {
		return fail("unsafe-spec-config", "spec rejected by checker but no enumerable disjoint quorum pair to force")
	}
	viewA, viewB := uint64(quorumViewIndex(mq, pair[0])), uint64(quorumViewIndex(mq, pair[1]))
	sideA := ids.FromSlice(pair[0])
	leaderA, leaderB := pair[0][0], pair[1][0]
	return &schedule{
		Scenario: &Scenario{
			Seed:     r.seed,
			Faulty:   ids.NewProcSet(),
			FaultEnd: healAt,
			Filter: sim.FilterFunc(func(from, to ids.ProcessID, _ wire.Message, now time.Duration) sim.Verdict {
				return sim.Verdict{Drop: now < healAt && sideA.Contains(from) != sideA.Contains(to)}
			}),
			Desc: []string{fmt.Sprintf("disjoint quorums %s | %s partitioned until %s; cross-cert request at %s",
				ids.NewQuorum(pair[0]), ids.NewQuorum(pair[1]), healAt, crossAt)},
		},
		submits: []submission{
			{at: 5 * time.Millisecond, entry: leaderA, req: &wire.Request{Client: 100, Seq: 1, Op: []byte("set side A1")}},
			{at: 5 * time.Millisecond, entry: leaderB, req: &wire.Request{Client: 300, Seq: 1, Op: []byte("set side B1")}},
			{at: crossAt, entry: leaderA, req: &wire.Request{Client: 100, Seq: 2, Op: []byte("set side A2")}},
		},
		site: func(at cluster.Site, node *core.NodeOptions, xo *xpaxos.Options) {
			node.HeartbeatPeriod, node.Quorum = 0, sys
			xo.InitialView = viewB
			if sideA.Contains(at.Proc) {
				xo.InitialView = viewA
			}
		},
		horizon: horizon,
		slice:   horizon,
	}, nil
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

// quorumViewIndex returns the view whose quorum is q: views enumerate
// the minimal quorums in order.
func quorumViewIndex(mq [][]ids.ProcessID, q []ids.ProcessID) int {
	want := ids.NewQuorum(q)
	for i, m := range mq {
		if ids.NewQuorum(m).Equal(want) {
			return i
		}
	}
	return 0
}

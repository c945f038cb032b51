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
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// ShardedConfig parameterizes the sharded-partition scenario: a fleet
// of independent XPaxos groups multiplexed over one simulated network,
// with shard 0's leader partitioned at the envelope level — only
// shard-0 frames to and from that process are dropped, so the same
// process keeps serving its other shards throughout.
type ShardedConfig struct {
	// N, F are the per-group cluster parameters (default 4, 1).
	N, F int
	// Shards is the fleet width (default 3, minimum 2). With the
	// default leader stagger the partitioned process also leads another
	// shard, which pins the envelope-level precision of the fault: the
	// process is unreachable for shard 0 and a committing leader for
	// that other shard at the same time.
	Shards int
	// Seeds is how many consecutive seeds Run executes (default 1);
	// FirstSeed is the first.
	Seeds     int
	FirstSeed int64
	// Requests is the per-live-shard workload submitted while the
	// partition is open (default 10).
	Requests int
	// Window bounds each group's commit pipeline (default 8).
	Window int
	// PartitionFrom/PartitionUntil bound the fault window (default
	// 1s-9s). Settle is when post-heal probes go out (default 18s);
	// Horizon ends the run (default 26s).
	PartitionFrom, PartitionUntil, Settle, Horizon time.Duration
	// Metrics, when set, receives the runs' metrics.
	Metrics *metrics.Registry
}

// RunSharded executes cfg.Seeds consecutive sharded-partition seeds
// and stops at the first invariant violation.
func RunSharded(cfg ShardedConfig) Result {
	cfg = cfg.shardedDefaults()
	return runSeeds("sharded", cfg.FirstSeed, cfg.Seeds, func(seed int64) *Violation {
		v, _ := runShardedSeed(cfg, seed, false)
		return v
	})
}

// ReplaySharded executes one seed and returns the full dump regardless
// of outcome. The dump is a pure function of (cfg, seed): every
// timestamp is virtual and every event string deterministic, so two
// replays of one seed produce identical bytes.
func ReplaySharded(cfg ShardedConfig, seed int64) (string, *Violation) {
	v, dump := runShardedSeed(cfg.shardedDefaults(), seed, true)
	return dump, v
}

func (c ShardedConfig) shardedDefaults() ShardedConfig {
	if c.N == 0 {
		c.N, c.F = 4, 1
	}
	if c.Shards == 0 {
		c.Shards = 3
	}
	if c.Shards < 2 {
		c.Shards = 2
	}
	if c.Seeds == 0 {
		c.Seeds = 1
	}
	if c.Requests == 0 {
		c.Requests = 10
	}
	if c.Window == 0 {
		c.Window = 8
	}
	if c.PartitionFrom == 0 {
		c.PartitionFrom = 1 * time.Second
	}
	if c.PartitionUntil == 0 {
		c.PartitionUntil = 9 * time.Second
	}
	if c.Settle == 0 {
		c.Settle = 18 * time.Second
	}
	if c.Horizon == 0 {
		c.Horizon = 26 * time.Second
	}
	return c
}

// shardedRun is one live sharded cluster under the scenario.
type shardedRun struct {
	cfg      ShardedConfig
	idsCfg   ids.Config
	cluster  *cluster.Cluster
	bus      *obs.Bus
	replicas map[int]map[ids.ProcessID]*xpaxos.Replica
	leaders  []ids.ProcessID
	victim   ids.ProcessID // shard 0's initial leader
}

// runShardedSeed builds the fleet cluster, plays the partition, and
// evaluates the per-shard checkers at their phase boundaries.
func runShardedSeed(cfg ShardedConfig, seed int64, alwaysDump bool) (*Violation, string) {
	idsCfg := ids.MustConfig(cfg.N, cfg.F)
	r := &shardedRun{
		cfg:      cfg,
		idsCfg:   idsCfg,
		bus:      obs.NewBus(0),
		replicas: make(map[int]map[ids.ProcessID]*xpaxos.Replica, cfg.Shards),
		leaders:  make([]ids.ProcessID, cfg.Shards),
	}

	// Stagger shard leaders across the leadable heads of the quorum
	// enumeration, exactly as a fleet deployment does.
	views := make([]uint64, cfg.Shards)
	leadable := idsCfg.N - idsCfg.Q() + 1
	for s := 0; s < cfg.Shards; s++ {
		p := ids.ProcessID(s%leadable + 1)
		v, ok := xpaxos.FirstViewLedBy(idsCfg, p)
		if !ok {
			panic(fmt.Sprintf("chaos: no view led by %s", p))
		}
		views[s], r.leaders[s] = v, p
		r.replicas[s] = make(map[ids.ProcessID]*xpaxos.Replica, cfg.N)
	}
	r.victim = r.leaders[0]

	// The fault: drop every shard-0 envelope to or from the victim
	// while the window is open. A pure function of (from, to, frame,
	// now), so the schedule is identical on every replay of the seed.
	victim := r.victim
	filter := sim.FilterFunc(func(from, to ids.ProcessID, m wire.Message, now time.Duration) sim.Verdict {
		if now < cfg.PartitionFrom || now >= cfg.PartitionUntil {
			return sim.Verdict{}
		}
		if from != victim && to != victim {
			return sim.Verdict{}
		}
		if env, ok := m.(*wire.ShardEnvelope); ok && env.Shard == 0 {
			return sim.Verdict{Drop: true}
		}
		return sim.Verdict{}
	})

	r.cluster = cluster.New(idsCfg, cfg.Shards, func(at cluster.Site) cluster.Member {
		n, rep := xpaxos.NewQSNode(xpaxos.Options{
			InitialView:        views[at.Shard],
			Window:             cfg.Window,
			CheckpointInterval: 8,
		}, core.DefaultNodeOptions())
		r.replicas[at.Shard][at.Proc] = rep
		return cluster.Member{Node: n, History: rep.Executions}
	}, sim.Options{
		Metrics: cfg.Metrics,
		Seed:    seed,
		Latency: cluster.LAN,
		Filter:  filter,
		Auth:    crypto.NewHMACRing(idsCfg, []byte("chaos-master")),
		Events:  r.bus,
	})
	net := r.cluster.Net
	defer net.Close()

	// Workload on every live shard (1..S-1), spread across the open
	// partition and submitted at each shard's leader. Shard 0 gets no
	// workload while its leader is cut off; its liveness is probed
	// after the heal.
	span := cfg.PartitionUntil - cfg.PartitionFrom - cfg.PartitionUntil/10
	gap := span / time.Duration(cfg.Requests+1)
	for s := 1; s < cfg.Shards; s++ {
		s := s
		for i := 1; i <= cfg.Requests; i++ {
			req := &wire.Request{
				Client: uint64(100 + s),
				Seq:    uint64(i),
				Op:     []byte(fmt.Sprintf("set s%dk%d v%d", s, i, i)),
			}
			net.At(cfg.PartitionFrom+time.Duration(i)*gap, func() {
				r.replicas[s][r.leaders[s]].Submit(req)
			})
		}
	}

	// Phase 1 — partition still open: every live shard must have
	// committed its full workload while shard 0's leader was cut off.
	var v *Violation
	net.Run(cfg.PartitionUntil)
	for s := 1; v == nil && s < cfg.Shards; s++ {
		if got, _ := r.cluster.Executed(s, uint64(100+s)); got < cfg.Requests {
			v = r.violation(seed, "sharded-liveness", fmt.Sprintf(
				"shard %d committed %d/%d requests while shard 0's leader %s was partitioned",
				s, got, cfg.Requests, r.victim))
		}
	}

	// Phase 2 — heal, settle, then probe every shard (including shard
	// 0): all probes must execute by the horizon. Probes go in at a
	// non-leader so they exercise forwarding under whatever quorum each
	// shard settled on.
	if v == nil {
		net.Run(cfg.Settle)
		for s := 0; s < cfg.Shards; s++ {
			for i := 1; i <= probeCount; i++ {
				r.replicas[s][ids.ProcessID(r.idsCfg.N)].Submit(&wire.Request{
					Client: probeClient,
					Seq:    uint64(i),
					Op:     []byte(fmt.Sprintf("set probe p%d", i)),
				})
			}
		}
		net.Run(cfg.Horizon)
		for s := 0; v == nil && s < cfg.Shards; s++ {
			if got, _ := r.cluster.Executed(s, probeClient); got < probeCount {
				v = r.violation(seed, "sharded-heal", fmt.Sprintf(
					"shard %d executed %d/%d post-heal probes", s, got, probeCount))
			}
		}
	}

	// Phase 3 — per-shard history agreement: within each shard, any
	// slot executed by two replicas carries the same batch. Shards are
	// compared independently; cross-shard histories share nothing.
	for s := 0; v == nil && s < cfg.Shards; s++ {
		if err := r.cluster.HistoriesAgree(s); err != nil {
			v = r.violation(seed, "sharded-history", fmt.Sprintf("shard %d %v", s, err))
		}
	}

	var dump string
	if v != nil || alwaysDump {
		dump = r.dump(seed, v)
	}
	if v != nil {
		v.Dump = dump
	}
	return v, dump
}

func (r *shardedRun) violation(seed int64, checker, detail string) *Violation {
	return &Violation{Seed: seed, Checker: checker, At: r.cluster.Net.Now(), Detail: detail}
}

// dump renders the replayable evidence: schedule, per-shard end state,
// and the tail of the event stream — all derived from virtual time and
// the seed, so replays are byte-identical.
func (r *shardedRun) dump(seed int64, v *Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos-sharded: seed=%d n=%d f=%d shards=%d window=%d\n",
		seed, r.cfg.N, r.cfg.F, r.cfg.Shards, r.cfg.Window)
	fmt.Fprintf(&b, "schedule:\n  shard 0 leader %s: shard-0 envelopes dropped in [%s,%s)\n",
		r.victim, r.cfg.PartitionFrom, r.cfg.PartitionUntil)
	if v != nil {
		fmt.Fprintf(&b, "violation: checker=%s at=%s\n  %s\n", v.Checker, v.At, v.Detail)
	} else {
		b.WriteString("no violation\n")
	}
	b.WriteString("shards:\n")
	for s := 0; s < r.cfg.Shards; s++ {
		lead := r.replicas[s][r.leaders[s]]
		fmt.Fprintf(&b, "  shard %d: leader0=%s view=%d viewchanges=%d executed=[",
			s, r.leaders[s], lead.View(), lead.ViewChanges())
		for i, p := range r.idsCfg.All() {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%d", p, r.replicas[s][p].LastExecuted())
		}
		b.WriteString("]\n")
	}
	writeEventTail(&b, r.bus)
	return b.String()
}

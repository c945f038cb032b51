package experiments

import (
	"fmt"
	"time"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/pbftlite"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// countPBFT runs the PBFT-style normal case and returns the total
// inter-replica protocol messages for the given number of requests.
func countPBFT(n, f, requests int, active bool) int64 {
	cfg := ids.MustConfig(n, f)
	replicas := make([]*pbftlite.Replica, 0, n)
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	net := cluster.New(cfg, 1, func(cluster.Site) cluster.Member {
		if active {
			node, r := pbftlite.NewQSNode(pbftlite.Options{}, opts)
			replicas = append(replicas, r)
			return cluster.Member{Node: node}
		}
		node, r := pbftlite.NewStandaloneNode(pbftlite.Options{}, opts)
		replicas = append(replicas, r)
		return cluster.Member{Node: node}
	}, sim.Options{}).Net
	for i := 1; i <= requests; i++ {
		replicas[0].Submit(&wire.Request{Client: 1, Seq: uint64(i), Op: []byte("op")})
	}
	net.RunUntil(func() bool {
		for _, r := range replicas {
			if r.Participating() && r.LastExecuted() < uint64(requests) {
				return false
			}
		}
		return true
	}, 30*time.Second)
	m := net.Metrics()
	return m.Counter("msg.sent.PRE-PREPARE") +
		m.Counter("msg.sent.PBFT-PREPARE") +
		m.Counter("msg.sent.PBFT-COMMIT")
}

// countXPaxos runs the XPaxos normal case over the default quorum and
// returns total inter-replica protocol messages. With fullN, the
// replication degree is configured so the active quorum is all of Π —
// the "no selection, everyone participates" reference point for the
// n = 2f+1 regime.
func countXPaxos(n, f, requests int) int64 {
	cfg := ids.MustConfig(n, f)
	replicas := make([]*xpaxos.Replica, 0, n)
	net := cluster.New(cfg, 1, func(cluster.Site) cluster.Member {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		node, r := xpaxos.NewQSNode(xpaxos.Options{}, opts)
		replicas = append(replicas, r)
		return cluster.Member{Node: node}
	}, sim.Options{}).Net
	for i := 1; i <= requests; i++ {
		replicas[0].Submit(&wire.Request{Client: 1, Seq: uint64(i), Op: []byte("op")})
	}
	net.RunUntil(func() bool {
		for _, r := range replicas {
			if r.InQuorum() && r.LastExecuted() < uint64(requests) {
				return false
			}
		}
		return true
	}, 30*time.Second)
	m := net.Metrics()
	return m.Counter("msg.sent.PREPARE") + m.Counter("msg.sent.COMMIT")
}

// E4MessageReduction reproduces the §I claim: selecting an active
// quorum of n−f processes drops ≈1/3 of the inter-replica messages in
// n = 3f+1 systems and ≈1/2 in n = 2f+1 systems. The per-link fanout
// ratio (n−q)/n is exactly f/n; the measured message reduction is
// larger because the all-to-all phases shrink quadratically.
func E4MessageReduction(maxF, requests int) Table {
	t := Table{
		ID:    "E4",
		Title: "Message reduction from active quorums (§I, Distler et al.)",
		Columns: []string{
			"regime", "f", "n", "q", "msgs/req all", "msgs/req quorum",
			"fanout-drop f/n", "measured-drop",
		},
		Notes: []string{
			"paper: 'these systems can drop approximately 1/3 or 1/2 of the inter-replica messages'",
			"fanout-drop is the per-destination saving; measured-drop includes the quadratic phases",
		},
	}
	for f := 1; f <= maxF; f++ {
		// n = 3f+1 regime (PBFT/Tendermint/BFT-SMaRt shape).
		n := 3*f + 1
		all := countPBFT(n, f, requests, false)
		quorum := countPBFT(n, f, requests, true)
		t.AddRow("3f+1", f, n, n-f,
			all/int64(requests), quorum/int64(requests),
			fmt.Sprintf("%.2f", float64(f)/float64(n)),
			fmt.Sprintf("%.2f", 1-float64(quorum)/float64(all)))

		// n = 2f+1 regime (trusted-component systems / XPaxos): the
		// active quorum has q = f+1; the reference "everyone
		// participates" run uses the same protocol with all n active,
		// modeled as a configuration with failure threshold 0.
		n2 := 2*f + 1
		all2 := countXPaxos(n2, 0, requests) // q = n: everyone active
		quorum2 := countXPaxos(n2, f, requests)
		t.AddRow("2f+1", f, n2, f+1,
			all2/int64(requests), quorum2/int64(requests),
			fmt.Sprintf("%.2f", float64(f)/float64(n2)),
			fmt.Sprintf("%.2f", 1-float64(quorum2)/float64(all2)))
	}
	return t
}

// E5ViewChanges reproduces §V-B / §I: the number of quorum changes a
// set of f crashed processes (occupying the low identifiers, worst case
// for the lexicographic enumeration) forces before the system settles
// on a working quorum — original XPaxos enumeration versus Quorum
// Selection, against C(n,f) and the O(f²) of Theorem 3.
func E5ViewChanges(maxF int) Table {
	t := Table{
		ID:    "E5",
		Title: "View changes to reach a working quorum: XPaxos enumeration vs Quorum Selection (§V-B)",
		Columns: []string{
			"f", "n", "baseline-viewchanges", "QS-viewchanges",
			"enumeration C(n,f)", "QS bound O(f²)",
		},
		Notes: []string{
			"f crashed processes on the low identifiers; baseline iterates quorums in order",
		},
	}
	for f := 1; f <= maxF; f++ {
		n := 3*f + 1
		baseline := runE5(n, f, false)
		qs := runE5(n, f, true)
		t.AddRow(f, n, baseline, qs, ids.Binomial(n, f), ids.TheoremThreeBound(f))
	}
	return t
}

// runE5 crashes processes p1..pf and returns the maximum number of view
// changes any correct replica performed before the active quorum is
// fault-free and stable.
func runE5(n, f int, useQS bool) int {
	cfg := ids.MustConfig(n, f)
	crashed := ids.NewProcSet()
	for i := 1; i <= f; i++ {
		crashed.Add(ids.ProcessID(i))
	}
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, n)
	net := cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
		if crashed.Contains(at.Proc) {
			return cluster.Member{}
		}
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 15 * time.Millisecond
		if useQS {
			node, r := xpaxos.NewQSNode(xpaxos.Options{}, opts)
			replicas[at.Proc] = r
			return cluster.Member{Node: node}
		}
		node, r := xpaxos.NewStandaloneNode(xpaxos.Options{}, opts)
		replicas[at.Proc] = r
		return cluster.Member{Node: node}
	}, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)}).Net
	net.RunUntil(func() bool {
		for _, r := range replicas {
			q := r.ActiveQuorum()
			for c := crashed.Next(ids.None); c != ids.None; c = crashed.Next(c) {
				if q.Contains(c) {
					return false
				}
			}
		}
		return true
	}, 2*time.Minute)
	max := 0
	for _, r := range replicas {
		if r.ViewChanges() > max {
			max = r.ViewChanges()
		}
	}
	return max
}

// E6NormalCase reproduces Figs 2–3: commit latency of the XPaxos normal
// case in communication rounds (one round = one link latency), with and
// without the delayed-PREPARE scenario, plus the count of false
// suspicions between correct processes (which must be zero — the §V-A
// accuracy argument).
func E6NormalCase(maxF int) Table {
	t := Table{
		ID:    "E6",
		Title: "XPaxos normal case (Figs 2–3): rounds to commit, no false suspicions",
		Columns: []string{
			"f", "n", "q", "rounds(normal)", "rounds(delayed PREPARE)", "false-suspicions",
		},
		Notes: []string{
			"Fig 2 predicts 2 rounds (PREPARE, COMMIT); the delayed scenario adds the detour of Fig 3",
		},
	}
	const lat = 10 * time.Millisecond
	for f := 1; f <= maxF; f++ {
		n := 3*f + 1
		normal, falseSusNormal := runE6(n, f, lat, false)
		delayed, falseSusDelayed := runE6(n, f, lat, true)
		t.AddRow(f, n, n-f,
			fmt.Sprintf("%.1f", normal), fmt.Sprintf("%.1f", delayed),
			falseSusNormal+falseSusDelayed)
	}
	return t
}

// runE6 returns the commit latency (in rounds of lat) of one request at
// the leader and the number of suspicions raised anywhere.
func runE6(n, f int, lat time.Duration, delayPrepare bool) (rounds float64, falseSuspicions int64) {
	cfg := ids.MustConfig(n, f)
	var filter sim.Filter
	if delayPrepare {
		filter = sim.FilterFunc(func(from, to ids.ProcessID, m wire.Message, _ time.Duration) sim.Verdict {
			// Delay the PREPARE to the highest quorum member past the
			// COMMIT exchange of everyone else.
			if m.Kind() == wire.TypePrepare && to == ids.ProcessID(n-f) {
				return sim.Verdict{Delay: 3 * lat}
			}
			return sim.Verdict{}
		})
	}
	replicas := make(map[ids.ProcessID]*xpaxos.Replica, n)
	net := cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		node, r := xpaxos.NewQSNode(xpaxos.Options{}, opts)
		replicas[at.Proc] = r
		return cluster.Member{Node: node}
	}, sim.Options{Latency: sim.ConstantLatency(lat), Filter: filter}).Net
	start := net.Now()
	replicas[1].Submit(&wire.Request{Client: 1, Seq: 1, Op: []byte("op")})
	net.RunUntil(func() bool { return replicas[1].LastExecuted() >= 1 }, time.Minute)
	elapsed := net.Now() - start
	return float64(elapsed) / float64(lat), net.Metrics().Counter("fd.suspicion.raised")
}

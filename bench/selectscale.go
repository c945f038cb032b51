package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	qs "quorumselect"
	"quorumselect/internal/graph"
	imetrics "quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/sim"
)

const (
	scaleN, scaleF = 64, 21
	// A full n=64 game is C(f+2,2)-1 = 252 injections; scaleInjPerSecond
	// × --seconds caps each of the five games, so 20 s plays them out.
	scaleInjPerSecond = 10
	// The warm-up is six n=31 games, sized so setup_s ≥ 1 s.
	scaleWarmN, scaleWarmF, scaleWarmGames = 31, 10, 6
	// One-way delay is uniform in [1.5 ms, 2.5 ms] (mean δ = 2 ms). A
	// constant delay would make every convergence latency the same
	// multiple of δ on every seed, and the driver rejects a time that
	// never varies.
	scaleDelayMin, scaleDelayMax = 1500 * time.Microsecond, 2500 * time.Microsecond
	// scaleSettle is the virtual time the network runs after each move
	// for the quorum to converge (adversary.ChurnOptions' default).
	scaleSettle = time.Second
)

type pair struct{ a, b qs.ProcessID }

// churnGame is one Theorem 4 adversary game against Algorithm 1 on
// core.Node only (no SMR), after adversary.RunQuorumChurn with
// PickRandom — replayed here because each forced quorum change is timed:
// one op = one injection, its latency the virtual time from
// Selector.OnSuspected to the last QUORUM event it causes on
// net.Events().
type churnGame struct {
	net   *sim.Network
	nodes map[qs.ProcessID]*qs.Node
	f     int

	latencies  []time.Duration
	injections int
	failed     int // injections that forced no quorum change
	violations []string
	maxEpoch   int          // most quorums the observer issued in one epoch
	issued     int          // quorums the observer issued in total
	suspects   *graph.Graph // the observer's suspect graph at the end
	// sparse is that graph after the first n/4 injections: the regime
	// where few processes are suspected relative to n, the only one in
	// which the line-subgraph search (exponential in edges: 31 ms at 24
	// edges, 2.2 s at 32) can be timed.
	sparse *graph.Graph
}

func playChurn(n, f int, seed int64, maxInjections int, reg *qs.Registry) *churnGame {
	cfg := qs.MustConfig(n, f)
	opts := qs.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0 // the adversary injects suspicions directly
	g := &churnGame{nodes: make(map[qs.ProcessID]*qs.Node, n), f: f}
	nodes := make(map[qs.ProcessID]qs.RuntimeNode, n)
	for _, p := range cfg.All() {
		g.nodes[p] = qs.NewNode(opts)
		nodes[p] = g.nodes[p]
	}
	g.net = sim.NewNetwork(cfg, nodes, sim.Options{
		Seed:    seed,
		Latency: sim.UniformLatency(scaleDelayMin, scaleDelayMax),
		Metrics: reg,
	})
	defer g.net.Close()

	rng := rand.New(rand.NewSource(seed))
	observer := g.nodes[1]
	// F⁺² is the first f+2 processes; the pair of its two highest
	// members is never injected, so every injected pair touches the
	// first f members — a legal adversary.
	victim := pair{qs.ProcessID(f + 1), qs.ProcessID(f + 2)}
	used := make(map[uint64]map[pair]bool)
	settle := func() { g.net.Run(g.net.Now() + scaleSettle) }
	settle()
	for g.injections < maxInjections {
		if !g.agreed() {
			settle()
			if !g.agreed() {
				g.violations = append(g.violations, fmt.Sprintf("no agreement before injection %d", g.injections+1))
				break
			}
		}
		epoch := observer.Selector.Epoch()
		candidates := admissible(observer.CurrentQuorum(), f+2, victim, used[epoch])
		if len(candidates) == 0 {
			break
		}
		move := candidates[rng.Intn(len(candidates))]
		if used[epoch] == nil {
			used[epoch] = make(map[pair]bool)
		}
		used[epoch][move] = true
		g.injections++

		// a suspects b, transiently.
		t0, seq0 := g.net.Now(), g.net.Events().Total()
		g.nodes[move.a].Selector.OnSuspected(qs.NewProcSet(move.b))
		settle()
		events, missed := g.net.Events().Since(seq0)
		last := time.Duration(-1)
		for _, e := range events {
			if e.Type == obs.TypeQuorumChange {
				last = e.At
			}
		}
		switch {
		case missed > 0:
			g.violations = append(g.violations, fmt.Sprintf("injection %d: event ring overran (%d missed)", g.injections, missed))
		case last < 0:
			g.failed++
		default:
			g.latencies = append(g.latencies, last-t0)
		}
		g.nodes[move.a].Selector.OnSuspected(qs.NewProcSet())
		settle()
		if g.injections == n/4 {
			g.sparse = observer.Store.SuspectGraph()
		}
	}

	g.issued = observer.Selector.QuorumsIssued()
	for e := uint64(1); e <= observer.Selector.Epoch(); e++ {
		g.maxEpoch = max(g.maxEpoch, observer.Selector.QuorumsIssuedInEpoch(e))
	}
	// Gate: the game ends in Agreement, within Theorem 3's bound.
	if !g.agreed() {
		g.violations = append(g.violations, "game ended without agreement")
	}
	if bound := f * (f + 1); g.maxEpoch > bound {
		g.violations = append(g.violations, fmt.Sprintf("%d quorums in one epoch exceed f(f+1) = %d", g.maxEpoch, bound))
	}
	g.suspects = observer.Store.SuspectGraph()
	if g.sparse == nil {
		g.sparse = g.suspects
	}
	return g
}

func (g *churnGame) agreed() bool {
	first := g.nodes[1].CurrentQuorum()
	for _, n := range g.nodes {
		if !n.CurrentQuorum().Equal(first) {
			return false
		}
	}
	return true
}

// admissible lists the pairs of F⁺² members (the first `top` processes)
// inside quorum q not yet injected this epoch, excluding the victim
// pair.
func admissible(q qs.Quorum, top int, victim pair, used map[pair]bool) []pair {
	var members []qs.ProcessID
	for _, p := range q.Members {
		if int(p) <= top {
			members = append(members, p)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	var out []pair
	for i, a := range members {
		for _, b := range members[i+1:] {
			if move := (pair{a, b}); move != victim && !used[move] {
				out = append(out, move)
			}
		}
	}
	return out
}

// selectScale is the workload: five games with seeds seed..seed+4 (a
// traced run: the first only), one game = one segment. The ~1260
// virtual-time latencies are pooled across the games for op_p50_ms and
// op_p99_ms: there is no run-to-run noise to take a median over, and a
// single game's p99 would rest on two samples.
func selectScale(rc runConfig) (*report, error) {
	limit := max(int(math.Ceil(scaleInjPerSecond*rc.seconds)), 1)
	// A full n=31 warm-up game is C(12,2)-1 = 65 injections.
	warmCap := max(int(65*rc.warmScale()), 1)
	rep := &report{}
	reg := imetrics.NewRegistry()
	var base *layerBase
	start := time.Now()
	var first mark
	var pooled []time.Duration
	var steps uint64
	var issued, maxEpoch int
	var final *churnGame
	for k := 0; k < rc.calls(); k++ {
		seed := rc.seed + int64(k)
		// Set-up: warm-up games of its own.
		t0 := rc.setupStart(k)
		for i := 0; i < scaleWarmGames; i++ {
			if g := playChurn(scaleWarmN, scaleWarmF, seed+int64(i), warmCap, nil); len(g.violations) > 0 || g.failed > 0 {
				return nil, fmt.Errorf("warm-up game %d: %d injections forced no change, violations %q", i, g.failed, g.violations)
			}
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())

		if base == nil {
			base, first = takeBase(registries{reg}), takeMark(start)
		}
		heap := liveHeap()
		from := takeMark(start)
		g := playChurn(scaleN, scaleF, seed, limit, reg)
		rep.segs = append(rep.segs, segmentOf(g.latencies, from, takeMark(start)))
		rep.liveHeap = append(rep.liveHeap, (liveHeap()-heap)/float64(max(len(g.latencies), 1)))
		for _, v := range g.violations {
			rep.violations = append(rep.violations, fmt.Sprintf("game %d: %s", k, v))
		}
		rep.attempted += g.injections
		rep.failed += g.failed
		pooled = append(pooled, g.latencies...)
		steps += g.net.Steps()
		issued += g.issued
		maxEpoch = max(maxEpoch, g.maxEpoch)
		final = g
	}
	last := takeMark(start)
	completed := len(pooled)
	if completed == 0 {
		return nil, fmt.Errorf("no injection forced a quorum change")
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
	rep.pooledP50Ms, rep.pooledP99Ms = ms(percentile(pooled, 50)), ms(percentile(pooled, 99))
	if !rc.trace {
		return rep, nil
	}
	rep.merge(base.layers(registries{reg}, completed, first, last))
	rep.layers["load.op_p999_ms"] = ms(percentile(pooled, 99.9))
	rep.layers["sim.events_per_op"] = float64(steps) / float64(completed)
	rep.layers["sim.events_per_s"] = float64(steps) / (last.wall - first.wall).Seconds()
	rep.layers["core.quorums_per_injection"] = float64(issued) / float64(rep.attempted)
	rep.layers["core.max_per_epoch_over_bound"] = float64(maxEpoch) / float64(scaleF*(scaleF+1))
	rep.merge(graphLayers(final.suspects, final.sparse, scaleN-scaleF))
	calls, err := callLayers(qs.MustConfig(scaleN, scaleF), nil)
	if err != nil {
		return nil, err
	}
	rep.merge(calls)
	return rep, nil
}

package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"math/rand"
	"sort"
	"time"

	qs "quorumselect"
	"quorumselect/internal/load"
	imetrics "quorumselect/internal/metrics"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
)

// geo3Topo is a frozen copy of examples/topologies/geo3.topo (one-way
// 40–92 ms + jitter), so a later edit there cannot move the benchmark.
//
//go:embed geo3.topo
var geo3Topo string

const (
	geoRate = 400 // Poisson arrivals per virtual second
	// geoVirtualPerSecond × --seconds is the virtual length of each of
	// the five calls (one call = one segment).
	geoVirtualPerSecond = 2.0
	// A crash every geoCrashEvery of virtual time, cycling p1, p2, p3,
	// with a restart geoDowntime later.
	geoCrashEvery = 10 * time.Second
	geoDowntime   = 2500 * time.Millisecond
	geoRetryEvery = time.Second
	// geoWarmVirtual is the warm-up call's virtual length, sized so
	// setup_s ≥ 1 s.
	geoWarmVirtual = 30 * time.Second
	// geoSettle is how long the cluster runs after the last completion
	// before the replicas' states are compared.
	geoSettle = 5 * time.Second
)

type geoReq struct {
	id       uint64 // doubles as the wire client ID
	intended time.Duration
	op       []byte
}

// geoCall is one virtual-time open-loop run of an n=4 XPaxos cluster on
// the geo3 topology under a crash schedule. It follows load.RunSim's
// engine (leader-hinted submission, every request its own wire client,
// retry every second so a request crosses a leader crash) but keeps
// every latency exactly and the replicas in reach of the correctness
// gate; load.Summary only has log-bucketed percentiles, which read the
// same on most seeds.
type geoCall struct {
	net      *sim.Network
	topo     *sim.BoundTopology
	replicas map[qs.ProcessID]*qs.XPaxosReplica
	kvs      map[qs.ProcessID]*qs.KVMachine
	backends map[qs.ProcessID]*storage.MemBackend
	running  map[qs.ProcessID]bool
	fd       qs.DetectorOptions

	pending   map[uint64]*geoReq
	latencies []time.Duration
	attempted int
	failed    int
}

func bindGeo3(n int) (*sim.BoundTopology, error) {
	topo, err := sim.ParseTopology(geo3Topo)
	if err != nil {
		return nil, err
	}
	return topo.Bind(n)
}

func newGeoCall(seed int64, reg *qs.Registry, tr *qs.Tracer) (*geoCall, error) {
	topo, err := bindGeo3(clusterN)
	if err != nil {
		return nil, err
	}
	g := &geoCall{
		topo:     topo,
		replicas: make(map[qs.ProcessID]*qs.XPaxosReplica),
		kvs:      make(map[qs.ProcessID]*qs.KVMachine),
		backends: make(map[qs.ProcessID]*storage.MemBackend),
		running:  make(map[qs.ProcessID]bool),
		fd:       qs.DefaultNodeOptions().FD,
		pending:  make(map[uint64]*geoReq),
	}
	// As load.RunSim: a WAN link slower than the LAN-tuned failure
	// detector turns every heartbeat into a false suspicion; scale the
	// timeouts to the worst one-way delay.
	if oneWay := topo.MaxOneWay(); 4*oneWay > g.fd.BaseTimeout {
		g.fd.BaseTimeout = 4 * oneWay
		if 10*g.fd.BaseTimeout > g.fd.MaxTimeout {
			g.fd.MaxTimeout = 10 * g.fd.BaseTimeout
		}
	}
	cfg := qs.MustConfig(clusterN, clusterF)
	nodes := make(map[qs.ProcessID]qs.RuntimeNode, cfg.N)
	for _, p := range cfg.All() {
		nodes[p] = g.newMember(p, storage.NewMemBackend())
	}
	g.net = sim.NewNetwork(cfg, nodes, sim.Options{
		Seed:    seed,
		Latency: topo.LatencyModel(),
		Filter:  topo.LinkFilter(),
		Metrics: reg,
		Tracer:  tr,
	})
	return g, nil
}

// newMember composes one durable XPaxos process over backend (a
// restarted process inherits its predecessor's).
func (g *geoCall) newMember(p qs.ProcessID, backend *storage.MemBackend) qs.RuntimeNode {
	nodeOpts := qs.DefaultNodeOptions()
	nodeOpts.FD = g.fd
	nodeOpts.Storage = backend
	kv := qs.NewKVMachine()
	node, rep := qs.NewXPaxosNode(qs.XPaxosOptions{
		SM:        kv,
		BatchSize: batchSize,
		Window:    commitWindow,
		OnExecute: g.complete,
	}, nodeOpts)
	g.replicas[p], g.kvs[p], g.backends[p], g.running[p] = rep, kv, backend, true
	return node
}

// submit sends req to the current leader when one is running, else to
// the lowest-numbered running replica, which forwards.
func (g *geoCall) submit(req *geoReq) {
	var entry qs.ProcessID
	for _, p := range g.net.Config().All() {
		if !g.running[p] {
			continue
		}
		if entry == 0 {
			entry = p
		}
		if g.replicas[p].IsLeader() {
			entry = p
			break
		}
	}
	if entry != 0 {
		g.replicas[entry].Submit(&qs.Request{Client: req.id, Seq: 1, Op: req.op})
	}
}

// armRetry re-submits an uncompleted request every second until it
// times out: the retry is what carries it into the new view.
func (g *geoCall) armRetry(req *geoReq) {
	g.net.At(g.net.Now()+geoRetryEvery, func() {
		if _, still := g.pending[req.id]; !still {
			return
		}
		if g.net.Now()-req.intended >= opTimeout {
			delete(g.pending, req.id)
			g.failed++
			return
		}
		g.submit(req)
		g.armRetry(req)
	})
}

// complete is every replica's OnExecute: the first execution of a
// request completes it.
func (g *geoCall) complete(e qs.Execution) {
	req, ok := g.pending[e.Client]
	if !ok {
		return
	}
	delete(g.pending, e.Client)
	g.latencies = append(g.latencies, g.net.Now()-req.intended)
}

// run offers Poisson arrivals for `virtual`, lets the stragglers
// finish, and returns the violations the correctness gate found.
func (g *geoCall) run(seed int64, virtual time.Duration) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x10ad))
	arrivals := &load.Poisson{R: geoRate}
	keys := &load.UniformKeys{N: keySpace}
	var arrive func(at time.Duration)
	arrive = func(at time.Duration) {
		if at >= virtual {
			return
		}
		g.net.At(at, func() {
			g.attempted++
			id := uint64(g.attempted)
			req := &geoReq{id: id, intended: at, op: []byte(fmt.Sprintf("set %s v%d", keys.Next(rng), id))}
			g.pending[id] = req
			g.submit(req)
			g.armRetry(req)
			arrive(at + arrivals.Next(rng))
		})
	}
	arrive(arrivals.Next(rng))
	victim := 0
	for at := geoCrashEvery; at+geoDowntime < virtual; at += geoCrashEvery {
		p := qs.ProcessID(victim%3 + 1)
		victim++
		g.net.At(at, func() {
			g.running[p] = false
			g.net.StopProcess(p)
		})
		g.net.At(at+geoDowntime, func() {
			g.net.ReplaceProcess(p, g.newMember(p, g.backends[p]))
		})
	}
	g.net.RunUntil(func() bool { return g.net.Now() >= virtual && len(g.pending) == 0 }, virtual+opTimeout+geoRetryEvery)
	g.failed += len(g.pending)
	g.net.Run(g.net.Now() + geoSettle)

	// Gate: the members of the final active quorum end on the same slot
	// and KV state; nobody is ahead of them. (A replica restarted into a
	// quorum it is no longer part of stays behind: nothing in the
	// protocol brings a passive replica with a gap up to date.)
	var bad []string
	ref := g.replicas[1]
	for _, r := range g.replicas {
		if r.View() > ref.View() {
			ref = r
		}
	}
	leader := ref.Leader()
	for _, p := range g.net.Config().All() {
		a, b := g.replicas[leader].LastExecuted(), g.replicas[p].LastExecuted()
		if !ref.ActiveQuorum().Contains(p) {
			if b > a {
				bad = append(bad, fmt.Sprintf("passive %s executed to slot %d, past leader %s at %d", p, b, leader, a))
			}
			continue
		}
		if a != b {
			bad = append(bad, fmt.Sprintf("leader %s executed to slot %d, quorum member %s to slot %d", leader, a, p, b))
		}
		if !bytes.Equal(g.kvs[leader].Snapshot(), g.kvs[p].Snapshot()) {
			bad = append(bad, fmt.Sprintf("KV state of quorum member %s differs from leader %s's", p, leader))
		}
	}
	g.net.Close()
	return bad
}

// geoFault is the workload: five calls with seeds seed..seed+4 (a
// traced run: the first only), one call = one segment. Latencies are
// virtual time, so they repeat exactly for a fixed seed. The warm-up is
// one crash-free call of geoWarmVirtual.
func geoFault(rc runConfig) (*report, error) {
	virtual := time.Duration(geoVirtualPerSecond * rc.seconds * float64(time.Second))
	warm := time.Duration(float64(geoWarmVirtual) * rc.warmScale())
	rep := &report{}
	reg := imetrics.NewRegistry()
	var tr *qs.Tracer
	if rc.trace {
		tr = qs.NewTracer(traceRing)
	}
	var base *layerBase
	start := time.Now()
	var first mark
	var all []time.Duration
	var steps uint64
	var delta time.Duration
	for k := 0; k < rc.calls(); k++ {
		seed := rc.seed + int64(k)
		// Set-up: a warm-up call of its own.
		t0 := rc.setupStart(k)
		g, err := newGeoCall(seed, nil, nil)
		if err != nil {
			return nil, err
		}
		if bad := g.run(seed, warm); len(bad) > 0 || g.failed > 0 {
			return nil, fmt.Errorf("warm-up %d: %d ops failed, violations %q", k, g.failed, bad)
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())

		if g, err = newGeoCall(seed, reg, tr); err != nil {
			return nil, err
		}
		if base == nil {
			base, first = takeBase(registries{reg}), takeMark(start)
		}
		heap := liveHeap()
		from := takeMark(start)
		bad := g.run(seed, virtual)
		rep.segs = append(rep.segs, segmentOf(g.latencies, from, takeMark(start)))
		rep.liveHeap = append(rep.liveHeap, (liveHeap()-heap)/float64(max(len(g.latencies), 1)))
		for _, v := range bad {
			rep.violations = append(rep.violations, fmt.Sprintf("call %d: %s", k, v))
		}
		rep.attempted += g.attempted
		rep.failed += g.failed
		rep.unfinished += g.failed
		all = append(all, g.latencies...)
		steps += g.net.Steps()
		delta = g.topo.MaxOneWay()
	}
	last := takeMark(start)
	completed := len(all)
	if completed == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	if !rc.trace {
		return rep, nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.merge(base.layers(registries{reg}, completed, first, last))
	rep.layers["load.op_p999_ms"] = ms(percentile(all, 99.9))
	rep.layers["xpaxos.p50_over_delta"] = float64(percentile(all, 50)) / float64(delta)
	rep.layers["sim.events_per_op"] = float64(steps) / float64(completed)
	rep.layers["sim.events_per_s"] = float64(steps) / (last.wall - first.wall).Seconds()
	rep.merge(stageSelfTimes(tr.Spans()))
	calls, err := callLayers(qs.MustConfig(clusterN, clusterF), nil)
	if err != nil {
		return nil, err
	}
	rep.merge(calls)
	return rep, nil
}

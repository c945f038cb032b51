// Command xpaxos runs XPaxos-on-Quorum-Selection over real TCP.
//
// Server mode — one process of the cluster:
//
//	xpaxos -id 1 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004 -f 1 -secret s3cret
//
// The -peers list names the listen address of every process in
// identifier order; the process listens on the address at position -id.
// Add -data-dir to persist protocol state (WAL + snapshots) so the
// process recovers its view, log, and suspicion matrix after a crash:
//
//	xpaxos -id 1 -peers ... -f 1 -secret s3cret -data-dir ./data/p1
//
// Add -shards N to run a fleet of N independent replication groups on
// the same process set: one consistent-hash router partitions the
// keyspace, all shards share this process's single connection per peer
// (wire.ShardEnvelope multiplexing), each shard persists into its own
// sub-tree of -data-dir and recovers independently, and shard leaders
// are staggered across processes:
//
//	xpaxos -id 1 -peers ... -f 1 -secret s3cret -shards 4 -data-dir ./data/p1
//
// Local mode — the whole cluster in one process (demo):
//
//	xpaxos -local -n 4 -f 1 -requests 10
//	xpaxos -local -n 4 -f 1 -shards 4 -requests 20
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	qs "quorumselect"
	"quorumselect/internal/crypto"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/wire"
)

func main() {
	id := flag.Int("id", 0, "this process's identifier (1-based)")
	peersFlag := flag.String("peers", "", "comma-separated listen addresses in identifier order")
	f := flag.Int("f", 1, "failure threshold")
	n := flag.Int("n", 4, "number of processes (local mode)")
	secret := flag.String("secret", "quorumselect-dev", "shared HMAC master secret")
	auth := flag.String("auth", "hmac", "authenticator: hmac (uses -secret), ed25519 (deterministic demo keyring), nop (no authentication; benchmarks only)")
	window := flag.Int("window", 16, "leader commit-window depth: slots in flight before client batches pool in the mempool (0 = unbounded)")
	shards := flag.Int("shards", 1, "independent replication groups to run as a fleet (1 = plain single group)")
	quorumSpec := flag.String("quorum-spec", "", `generalized quorum spec, e.g. "weighted:w=3,1,1,1;t=4" or "slices:n=4;1={2,3}|{3,4};..." (empty: n-f threshold); checked for intersection+availability before boot`)
	local := flag.Bool("local", false, "run the whole cluster in this process")
	requests := flag.Int("requests", 10, "requests to submit in local mode")
	dataDir := flag.String("data-dir", "", "durable state directory (empty: run in-memory); each process needs its own")
	httpAddr := flag.String("http", "", "client-facing HTTP address (server mode), e.g. 127.0.0.1:8081")
	debugAddr := flag.String("debug-addr", "", "optional pprof listener address (server mode), e.g. 127.0.0.1:6060")
	flight := flag.String("flight", "", "write fail-stop flight-recorder dumps to this file instead of stderr (server mode)")
	flag.Parse()

	if *shards < 1 {
		log.Fatalf("-shards %d: need at least one shard", *shards)
	}
	if *local {
		runLocal(*n, *f, *secret, *auth, *window, *shards, *requests, *dataDir, *quorumSpec)
		return
	}
	runServer(*id, *peersFlag, *f, *secret, *auth, *window, *shards, *dataDir, *httpAddr, *debugAddr, *flight, *quorumSpec)
}

// loadQuorumSpec is the boot gate for -quorum-spec: parse the spec,
// run the intersection/availability checker against the cluster's
// failure threshold, and refuse to boot on a spec that admits disjoint
// quorums or cannot survive f faults. The default threshold spec is
// checked too (its report is printed), but returns a nil system so the
// byte-exact legacy selection path stays in effect.
func loadQuorumSpec(spec string, cfg qs.Config, shards int) (qs.QuorumSystem, qs.QuorumReport, error) {
	defaulted := spec == ""
	if defaulted {
		spec = fmt.Sprintf("threshold:n=%d;f=%d", cfg.N, cfg.F)
	} else if shards > 1 {
		// Fleet leader staggering walks the threshold view enumeration
		// (FirstViewLedBy); generalized specs have no such indexing yet.
		return nil, qs.QuorumReport{}, fmt.Errorf("-quorum-spec cannot be combined with -shards > 1")
	}
	sys, err := qs.ParseQuorumSpec(spec)
	if err != nil {
		return nil, qs.QuorumReport{}, err
	}
	if sys.N() != cfg.N {
		return nil, qs.QuorumReport{}, fmt.Errorf("-quorum-spec %q is for n=%d, cluster has n=%d", spec, sys.N(), cfg.N)
	}
	report := qs.CheckQuorumSystem(sys, qs.QuorumCheckOptions{Faults: cfg.F})
	if err := report.Err(); err != nil {
		return nil, report, err
	}
	if defaulted {
		return nil, report, nil
	}
	return sys, report, nil
}

// makeAuth builds the wire authenticator selected by -auth. The
// ed25519 keyring is derived deterministically (every process computes
// the same keys), so separate server processes interoperate without a
// key-distribution step — demo and benchmark quality, not production
// key management.
func makeAuth(kind string, cfg qs.Config, secret string) (qs.Authenticator, error) {
	switch kind {
	case "hmac":
		return qs.NewHMACAuth(cfg, []byte(secret)), nil
	case "ed25519":
		return qs.NewEd25519Auth(cfg)
	case "nop":
		return crypto.NopRing{}, nil
	default:
		return nil, fmt.Errorf("unknown -auth %q (want hmac, ed25519, or nop)", kind)
	}
}

// shardLeader returns the initial-leader process of a shard under the
// fleet's stagger: shards cycle across the processes that can lead
// (the heads of the quorum enumeration, 1..n-q+1).
func shardLeader(cfg qs.Config, shard int) qs.ProcessID {
	leadable := cfg.N - cfg.Q() + 1
	return qs.ProcessID(shard%leadable + 1)
}

// buildHost composes one process — a single XPaxos group, or a fleet
// of shards independent groups — over a TCP host. The returned slices
// are indexed by shard (length 1 when shards == 1, where the node is
// wired bare for wire compatibility with non-fleet deployments).
func buildHost(p qs.ProcessID, cfg qs.Config, addrs map[qs.ProcessID]string,
	listen string, secret, auth string, window, shards int, dataDir string,
	sys qs.QuorumSystem,
	onExec func(shard int, e qs.Execution)) (*qs.Host, []*qs.XPaxosReplica, []*qs.KVMachine, error) {
	var root qs.StorageBackend
	if dataDir != "" {
		backend, err := qs.NewDirStorage(dataDir)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("open data dir: %w", err)
		}
		root = backend
	}
	replicas := make([]*qs.XPaxosReplica, shards)
	kvs := make([]*qs.KVMachine, shards)
	var buildErr error
	newShard := func(s int) qs.RuntimeNode {
		nodeOpts := qs.DefaultNodeOptions()
		nodeOpts.HeartbeatPeriod = 50 * time.Millisecond
		// A checked generalized spec drives both selection and the
		// certificate path (NewXPaxosNode syncs the replica side).
		nodeOpts.Quorum = sys
		if root != nil {
			st := root
			if shards > 1 {
				sub, err := qs.SubStorage(root, fmt.Sprintf("shard-%d", s))
				if err != nil {
					buildErr = fmt.Errorf("shard %d storage: %w", s, err)
					return nil
				}
				st = sub
			}
			nodeOpts.Storage = st
		}
		var initialView uint64
		if shards > 1 {
			v, ok := qs.FirstViewLedBy(cfg, shardLeader(cfg, s))
			if !ok {
				buildErr = fmt.Errorf("shard %d: no view led by %s", s, shardLeader(cfg, s))
				return nil
			}
			initialView = v
		}
		kv := qs.NewKVMachine()
		tag := ""
		if shards > 1 {
			tag = fmt.Sprintf("/s%d", s)
		}
		node, replica := qs.NewXPaxosNode(qs.XPaxosOptions{
			SM:                 kv,
			CheckpointInterval: 100,
			Window:             window,
			InitialView:        initialView,
			OnExecute: func(e qs.Execution) {
				fmt.Printf("[%s%s] executed %s -> %q\n", p, tag, e, e.Result)
				if onExec != nil {
					onExec(s, e)
				}
			},
		}, nodeOpts)
		replicas[s] = replica
		kvs[s] = kv
		return node
	}
	var node qs.RuntimeNode
	if shards > 1 {
		node = qs.NewFleet(qs.FleetOptions{Shards: shards, NewShard: newShard})
	} else {
		node = newShard(0)
	}
	if buildErr != nil {
		return nil, nil, nil, buildErr
	}
	ring, err := makeAuth(auth, cfg, secret)
	if err != nil {
		return nil, nil, nil, err
	}
	host, err := qs.NewTCPHost(qs.HostConfig{
		Self:       p,
		System:     cfg,
		ListenAddr: listen,
		Peers:      addrs,
		Auth:       ring,
		Tracer:     qs.NewTracer(0),
		Seed:       int64(p),
	}, node)
	return host, replicas, kvs, err
}

func runServer(id int, peersFlag string, f int, secret, auth string, window, shards int, dataDir, httpAddr, debugAddr, flight, quorumSpec string) {
	peers := strings.Split(peersFlag, ",")
	if peersFlag == "" || len(peers) < 2 {
		log.Fatal("server mode needs -peers with at least two addresses")
	}
	cfg, err := qs.NewConfig(len(peers), f)
	if err != nil {
		log.Fatal(err)
	}
	self := qs.ProcessID(id)
	if !self.Valid(cfg.N) {
		log.Fatalf("-id %d outside 1..%d", id, cfg.N)
	}
	addrs := make(map[qs.ProcessID]string, cfg.N)
	for i, a := range peers {
		addrs[qs.ProcessID(i+1)] = strings.TrimSpace(a)
	}
	listen := addrs[self]
	delete(addrs, self)

	sys, report, err := loadQuorumSpec(quorumSpec, cfg, shards)
	if err != nil {
		log.Fatalf("quorum spec rejected: %v\n  %s", err, report)
	}
	fmt.Printf("%s\n", report)

	if flight != "" {
		// Fail-stop crashes (storage persist failures) dump the flight
		// recorder here instead of stderr, so a post-mortem survives log
		// rotation and redirection.
		fw, err := os.Create(flight)
		if err != nil {
			log.Fatalf("open flight file: %v", err)
		}
		defer fw.Close()
		obs.SetCrashWriter(fw)
	}

	// Per-shard execution gauges are refreshed from the execute hook;
	// the registry pointer is bound once the host is up (executions
	// only happen after the host loop starts).
	var fe *frontend
	var reg *qs.Registry
	host, replicas, kvs, err := buildHost(self, cfg, addrs, listen, secret, auth, window, shards, dataDir, sys,
		func(s int, e qs.Execution) {
			if reg != nil {
				reg.SetGauge("fleet.shard.executed", float64(e.Slot),
					metrics.L{Key: "shard", Value: fmt.Sprintf("%d", s)})
			}
			if fe != nil {
				fe.onExecute(s, e)
			}
		})
	if err != nil {
		log.Fatal(err)
	}
	defer host.Close()
	reg = host.Metrics()
	// Checker verdicts as gauges: both are necessarily 1 when the
	// process boots (a failing spec is fatal above), labeled with the
	// active spec so dashboards can tell which system is live.
	specLabel := metrics.L{Key: "spec", Value: report.Spec}
	reg.SetGauge("quorum.check.intersection_ok", 1, specLabel)
	reg.SetGauge("quorum.check.available_ok", 1, specLabel)
	if report.Exact {
		reg.SetGauge("quorum.check.exact", 1, specLabel)
	} else {
		reg.SetGauge("quorum.check.exact", 0, specLabel)
		reg.SetGauge("quorum.check.confidence", report.Confidence, specLabel)
	}
	if shards > 1 {
		fmt.Printf("xpaxos %s listening on %s (%s, %d shards)\n", self, host.Addr(), cfg, shards)
	} else {
		fmt.Printf("xpaxos %s listening on %s (%s)\n", self, host.Addr(), cfg)
	}
	if httpAddr != "" {
		fe = newFrontend(host, replicas, kvs, uint64(self))
		srv := serveHTTP(httpAddr, fe)
		defer srv.Close()
		fmt.Printf("http frontend on %s (POST /submit, GET /status, GET /kv?key=..., GET /metrics, GET /events?since=N, GET /trace[?format=chrome])\n", httpAddr)
	}
	if debugAddr != "" {
		dbg := serveDebug(debugAddr)
		defer dbg.Close()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("received %s, shutting down\n", s)
	// Graceful shutdown: stop the node through the host lifecycle
	// (heartbeats silenced, timers canceled), flush a final metrics dump
	// to stderr for post-mortem scraping, and exit cleanly.
	if err := host.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "close: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "# final metrics")
	if _, err := host.Metrics().WriteTo(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "metrics dump: %v\n", err)
	}
	os.Exit(0)
}

func runLocal(n, f int, secret, auth string, window, shards, requests int, dataDir, quorumSpec string) {
	cfg, err := qs.NewConfig(n, f)
	if err != nil {
		log.Fatal(err)
	}
	sys, report, err := loadQuorumSpec(quorumSpec, cfg, shards)
	if err != nil {
		log.Fatalf("quorum spec rejected: %v\n  %s", err, report)
	}
	fmt.Printf("%s\n", report)
	hosts := make(map[qs.ProcessID]*qs.Host, cfg.N)
	replicas := make(map[qs.ProcessID][]*qs.XPaxosReplica, cfg.N)
	for _, p := range cfg.All() {
		dir := ""
		if dataDir != "" {
			// Each process persists into its own subdirectory.
			dir = fmt.Sprintf("%s/p%d", dataDir, p)
		}
		host, reps, _, err := buildHost(p, cfg, nil, "", secret, auth, window, shards, dir, sys, nil)
		if err != nil {
			log.Fatal(err)
		}
		hosts[p] = host
		replicas[p] = reps
	}
	for _, p := range cfg.All() {
		for _, q := range cfg.All() {
			if p != q {
				hosts[p].SetPeerAddr(q, hosts[q].Addr())
			}
		}
	}
	defer func() {
		for _, h := range hosts {
			h.Close()
		}
	}()

	// Requests are routed across shards by key through the same
	// consistent-hash router the HTTP frontend uses, each submitted at
	// its shard's initial leader.
	router := qs.NewShardRouter(shards)
	fmt.Printf("local cluster up (%s, %d shards); submitting %d requests\n", cfg, shards, requests)
	perShard := make([]uint64, shards)
	for i := 1; i <= requests; i++ {
		key := fmt.Sprintf("key%d", i)
		s := router.RouteString(key)
		lead := shardLeader(cfg, s)
		perShard[s]++
		seq := perShard[s]
		op := fmt.Sprintf("set %s value%d", key, i)
		rep := replicas[lead][s]
		hosts[lead].Do(func() {
			rep.Submit(&wire.Request{Client: uint64(100 + s), Seq: seq, Op: []byte(op)})
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for s := 0; s < shards; s++ {
			lead := shardLeader(cfg, s)
			rep := replicas[lead][s]
			var exec uint64
			hosts[lead].Do(func() { exec = rep.LastExecuted() })
			if exec < perShard[s] {
				done = false
				break
			}
		}
		if done {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, p := range cfg.All() {
		for s := 0; s < shards; s++ {
			rep := replicas[p][s]
			var exec uint64
			var quorum qs.Quorum
			hosts[p].Do(func() {
				exec = rep.LastExecuted()
				quorum = rep.ActiveQuorum()
			})
			if shards > 1 {
				fmt.Printf("%s/s%d: executed=%d quorum=%s\n", p, s, exec, quorum)
			} else {
				fmt.Printf("%s: executed=%d quorum=%s\n", p, exec, quorum)
			}
		}
	}
}

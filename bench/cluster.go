package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	qs "quorumselect"
)

// clusterSpec describes the in-process n=4, f=1 TCP cluster of a
// loopback workload. Node options follow cmd/xpaxos buildHost
// (heartbeat 50 ms, CheckpointInterval 100, KVMachine) plus
// load.SimOptions' commit-path defaults (BatchSize 8, Window 16), so
// the TCP and simulator workloads share their commit-path tuning.
type clusterSpec struct {
	shards  int
	auth    string // "ed25519" or "hmac"
	storage bool   // DirBackend WAL with real fsync in a temp dir
	traced  bool   // transport.Config.Tracer set
}

const (
	clusterN        = 4
	clusterF        = 1
	batchSize       = 8
	commitWindow    = 16
	checkpointEvery = 100
	heartbeatPeriod = 50 * time.Millisecond
	// The failure detector's base timeout is raised from its 40 ms
	// default: this class of VM disk stalls an fsync for 40–150 ms a few
	// times a minute, one false suspicion is enough to change the view,
	// and a run with a view change is void (see check). Nothing on the
	// loopback workloads ever needs detecting.
	fdBaseTimeout = 500 * time.Millisecond
	fdMaxTimeout  = 5 * time.Second
	// traceRing holds every span of a traced run (≈ 12 spans per slot
	// across the four hosts sharing one ring would be lost to eviction
	// at the default 4096).
	traceRing = 1 << 20
)

// cluster is four hosts over real loopback sockets in this process.
// There are no HTTP frontends and no client connections: the only
// sockets are the system's own peer links.
type cluster struct {
	cfg      qs.Config
	spec     clusterSpec
	hosts    map[qs.ProcessID]*qs.Host
	replicas map[qs.ProcessID][]*qs.XPaxosReplica // indexed by shard
	kvs      map[qs.ProcessID][]*qs.KVMachine
	tracers  map[qs.ProcessID]*qs.Tracer
	leaders  []qs.ProcessID // initial leader of each shard
	auth     qs.Authenticator
	dataDir  string

	// onExec observes executions at each shard's initial leader, on
	// that host's event loop. Set before the first submit.
	onExec func(shard int, e qs.Execution)
}

// shardLeader is the fleet's leader stagger (as cmd/xpaxos): shards
// cycle across the processes that can lead, 1..n-q+1.
func shardLeader(cfg qs.Config, shard int) qs.ProcessID {
	return qs.ProcessID(shard%(cfg.N-cfg.Q()+1) + 1)
}

func newCluster(spec clusterSpec) (*cluster, error) {
	cfg := qs.MustConfig(clusterN, clusterF)
	c := &cluster{
		cfg:      cfg,
		spec:     spec,
		hosts:    make(map[qs.ProcessID]*qs.Host, cfg.N),
		replicas: make(map[qs.ProcessID][]*qs.XPaxosReplica, cfg.N),
		kvs:      make(map[qs.ProcessID][]*qs.KVMachine, cfg.N),
		tracers:  make(map[qs.ProcessID]*qs.Tracer, cfg.N),
	}
	for s := 0; s < spec.shards; s++ {
		c.leaders = append(c.leaders, shardLeader(cfg, s))
	}
	switch spec.auth {
	case "ed25519":
		ring, err := qs.NewEd25519Auth(cfg)
		if err != nil {
			return nil, err
		}
		c.auth = ring
	case "hmac":
		c.auth = qs.NewHMACAuth(cfg, []byte("bench"))
	default:
		return nil, fmt.Errorf("unknown auth %q", spec.auth)
	}
	if spec.storage {
		dir, err := os.MkdirTemp("", "qsbench-wal-")
		if err != nil {
			return nil, err
		}
		c.dataDir = dir
	}
	for _, p := range cfg.All() {
		if err := c.startHost(p); err != nil {
			c.close()
			return nil, err
		}
	}
	for _, p := range cfg.All() {
		for _, q := range cfg.All() {
			if p != q {
				c.hosts[p].SetPeerAddr(q, c.hosts[q].Addr())
			}
		}
	}
	return c, nil
}

func (c *cluster) procDir(p qs.ProcessID) string {
	return filepath.Join(c.dataDir, fmt.Sprintf("p%d", p))
}

func (c *cluster) startHost(p qs.ProcessID) error {
	var wal qs.StorageBackend
	if c.spec.storage {
		if c.spec.shards > 1 {
			return fmt.Errorf("storage with %d shards: no workload needs per-shard sub-trees", c.spec.shards)
		}
		backend, err := qs.NewDirStorage(c.procDir(p))
		if err != nil {
			return err
		}
		wal = backend
	}
	shards := c.spec.shards
	c.replicas[p] = make([]*qs.XPaxosReplica, shards)
	c.kvs[p] = make([]*qs.KVMachine, shards)
	var buildErr error
	newShard := func(s int) qs.RuntimeNode {
		nodeOpts := qs.DefaultNodeOptions()
		nodeOpts.HeartbeatPeriod = heartbeatPeriod
		nodeOpts.FD.BaseTimeout, nodeOpts.FD.MaxTimeout = fdBaseTimeout, fdMaxTimeout
		nodeOpts.Storage = wal
		var initialView uint64
		if shards > 1 {
			v, ok := qs.FirstViewLedBy(c.cfg, c.leaders[s])
			if !ok {
				buildErr = fmt.Errorf("shard %d: no view led by %s", s, c.leaders[s])
				return nil
			}
			initialView = v
		}
		kv := qs.NewKVMachine()
		opts := qs.XPaxosOptions{
			SM:                 kv,
			CheckpointInterval: checkpointEvery,
			BatchSize:          batchSize,
			Window:             commitWindow,
			InitialView:        initialView,
		}
		if p == c.leaders[s] {
			opts.OnExecute = func(e qs.Execution) { c.onExec(s, e) }
		}
		node, replica := qs.NewXPaxosNode(opts, nodeOpts)
		c.replicas[p][s] = replica
		c.kvs[p][s] = kv
		return node
	}
	var node qs.RuntimeNode
	if shards > 1 {
		node = qs.NewFleet(qs.FleetOptions{Shards: shards, NewShard: newShard})
	} else {
		node = newShard(0)
	}
	if buildErr != nil {
		return buildErr
	}
	if c.spec.traced {
		c.tracers[p] = qs.NewTracer(traceRing)
	}
	host, err := qs.NewTCPHost(qs.HostConfig{
		Self:   p,
		System: c.cfg,
		Auth:   c.auth,
		Tracer: c.tracers[p],
		Seed:   int64(p),
	}, node)
	if err != nil {
		return err
	}
	c.hosts[p] = host
	return nil
}

// submit is the generator's target: host.Do(replica.Submit) at the
// shard's leader.
func (c *cluster) submit(shard int, req *qs.Request) {
	lead := c.leaders[shard]
	rep := c.replicas[lead][shard]
	c.hosts[lead].Do(func() { rep.Submit(req) })
}

// closeHosts stops every host, waiting for its goroutines.
func (c *cluster) closeHosts() {
	for _, h := range c.hosts {
		h.Close()
	}
}

// close stops the hosts and removes the WAL directory.
func (c *cluster) close() {
	c.closeHosts()
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
	}
}

// registries lists the hosts' registries in process order.
func (c *cluster) registries() registries {
	var rs registries
	for _, p := range c.cfg.All() {
		rs = append(rs, c.hosts[p].Metrics())
	}
	return rs
}

func (c *cluster) setTracing(on bool) {
	for _, t := range c.tracers {
		t.SetEnabled(on)
	}
}

// spans returns every host's recorded spans.
func (c *cluster) spans() []qs.TraceSpan {
	var out []qs.TraceSpan
	for _, p := range c.cfg.All() {
		out = append(out, c.tracers[p].Spans()...)
	}
	return out
}

// replicaState is what the correctness gate compares across replicas.
type replicaState struct {
	lastExec    uint64
	viewChanges int
	kv          []byte
	history     uint64 // FNV-1a over the executed (slot, client, seq, op) sequence
	executed    int
}

func (c *cluster) state(p qs.ProcessID, shard int) replicaState {
	var st replicaState
	rep, kv := c.replicas[p][shard], c.kvs[p][shard]
	c.hosts[p].Do(func() {
		st.lastExec = rep.LastExecuted()
		st.viewChanges = rep.ViewChanges()
		st.kv = kv.Snapshot()
		h := fnv.New64a()
		execs := rep.Executions()
		for _, e := range execs {
			fmt.Fprintf(h, "%d/%d/%d/%s;", e.Slot, e.Client, e.Seq, e.Op)
		}
		st.history = h.Sum64()
		st.executed = len(execs)
	})
	return st
}

func (c *cluster) lastExecuted(p qs.ProcessID, shard int) uint64 {
	var slot uint64
	rep := c.replicas[p][shard]
	c.hosts[p].Do(func() { slot = rep.LastExecuted() })
	return slot
}

// check is the loopback correctness gate: every replica of every shard
// ends on the same LastExecuted, KV state and executed history, that
// history holds exactly the ops the generator saw complete, nobody was
// suspected and no view changed. It returns the violations found.
func (c *cluster) check(completedPerShard []int) []string {
	var bad []string
	// Followers execute a moment after the leader; the passive replica
	// learns through lazy replication. Poll (2 ms) until they catch up.
	deadline := time.Now().Add(opTimeout)
	for s, lead := range c.leaders {
		want := c.lastExecuted(lead, s)
		for _, p := range c.cfg.All() {
			for c.lastExecuted(p, s) < want && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	for s, lead := range c.leaders {
		ref := c.state(lead, s)
		if ref.executed != completedPerShard[s] {
			bad = append(bad, fmt.Sprintf("shard %d: leader history holds %d ops, generator completed %d", s, ref.executed, completedPerShard[s]))
		}
		for _, p := range c.cfg.All() {
			st := c.state(p, s)
			if st.viewChanges != 0 {
				bad = append(bad, fmt.Sprintf("shard %d %s: %d view changes on loopback", s, p, st.viewChanges))
			}
			if st.lastExec != ref.lastExec || st.history != ref.history || st.executed != ref.executed {
				bad = append(bad, fmt.Sprintf("shard %d %s: history (slot %d, %d ops) differs from leader's (slot %d, %d ops)", s, p, st.lastExec, st.executed, ref.lastExec, ref.executed))
			}
			if !bytes.Equal(st.kv, ref.kv) {
				bad = append(bad, fmt.Sprintf("shard %d %s: KV state differs from leader's", s, p))
			}
		}
	}
	if n := c.registries().counter("fd.suspicion.raised"); n != 0 {
		bad = append(bad, fmt.Sprintf("%v suspicions raised on loopback", n))
	}
	return bad
}

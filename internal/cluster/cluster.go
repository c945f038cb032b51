// Package cluster is the one simulated-cluster harness: it builds n
// processes (each one node, or a fleet of shard nodes) on a seeded
// sim.Network and owns what every scenario driver needs on top of it —
// the storage backend that outlives a process, crash and restart over
// that backend, running-state tracking, client-style submission, the
// link model with its failure-detector timeouts, and the replicated-
// history checks.
//
// The harness is protocol-agnostic. The seam is the Builder: a closure
// the caller supplies that composes one (process, shard) member over the
// process's backend and returns its node plus the hooks the harness
// drives. Typed handles a driver wants (a *core.Node, a
// *xpaxos.Replica) it captures inside that closure; the closure runs
// again on Restart, so the capture always names the live member.
// Drivers that need no restarts or application hooks use Nodes, which
// returns the typed nodes directly, and Agreed, the one quorum-agreement
// check over them.
//
// It is simulator-only by design: crash semantics, virtual time and the
// determinism the chaos, load and experiment drivers rely on all come
// from internal/sim. A TCP backend would plug in at the same Builder
// seam.
package cluster

import (
	"bytes"
	"fmt"
	"time"

	"quorumselect/internal/fd"
	"quorumselect/internal/fleet"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// Site names what a Builder is composing: one shard of one process,
// over that process's storage.
type Site struct {
	Proc  ids.ProcessID
	Shard int
	// Backend is the process's durable storage. It survives the member:
	// after a crash it is the only state the rebuilt member inherits. A
	// durable composition wires it (or a storage.Sub of it, per shard)
	// into its node options; a stateless one ignores it.
	Backend *storage.MemBackend
}

// Member is what a Builder returns: the node the simulator drives and
// the optional hooks of the replicated application on top of it.
type Member struct {
	// Node is the protocol node. Nil is a process that is down from the
	// start: it never sends and ignores everything it receives.
	Node runtime.Node
	// Submit hands the member a client request (nil: no application).
	Submit func(*wire.Request)
	// History returns the member's executed requests in execution order
	// (nil: no replicated history).
	History func() []xpaxos.Execution
	// IsLeader, when set, lets Submit go straight to the leader.
	IsLeader func() bool
}

// Builder composes the member at one site. New calls it for every
// process in identifier order (shards in order within a process), and
// Restart calls it again for the restarted process.
type Builder func(Site) Member

// Cluster is one simulated system: the network, its members, and the
// per-process state that outlives them.
type Cluster struct {
	// Net is the underlying simulator: run it, schedule on it, read its
	// metrics and events.
	Net *sim.Network

	cfg      ids.Config
	shards   int
	build    Builder
	members  map[ids.ProcessID][]Member
	backends map[ids.ProcessID]*storage.MemBackend
	down     ids.ProcSet
}

// New builds every member and boots the network. With shards > 1 each
// process is a fleet multiplexing its shard members over one endpoint.
func New(cfg ids.Config, shards int, build Builder, opts sim.Options) *Cluster {
	c := &Cluster{
		cfg:      cfg,
		shards:   shards,
		build:    build,
		members:  make(map[ids.ProcessID][]Member, cfg.N),
		backends: make(map[ids.ProcessID]*storage.MemBackend, cfg.N),
	}
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	for _, p := range cfg.All() {
		c.backends[p] = storage.NewMemBackend()
		nodes[p] = c.process(p)
	}
	c.Net = sim.NewNetwork(cfg, nodes, opts)
	return c
}

// Nodes builds a single-shard cluster of one node per process and
// returns its network and the nodes by process, typed as newNode makes
// them. A process for which newNode reports false has no node and stays
// silent. It is the harness for drivers that need neither restarts nor
// application hooks.
func Nodes[N runtime.Node](cfg ids.Config, newNode func(ids.ProcessID) (N, bool), opts sim.Options) (*sim.Network, map[ids.ProcessID]N) {
	nodes := make(map[ids.ProcessID]N, cfg.N)
	net := New(cfg, 1, func(at Site) Member {
		n, ok := newNode(at.Proc)
		if !ok {
			return Member{}
		}
		nodes[at.Proc] = n
		return Member{Node: n}
	}, opts).Net
	return net, nodes
}

// Agreed reports whether every node holds the same current quorum, and
// returns it. core.Node and follower.Node both serve CurrentQuorum from
// their host.
func Agreed[N interface{ CurrentQuorum() ids.Quorum }](nodes map[ids.ProcessID]N) (q ids.Quorum, ok bool) {
	first := true
	for _, n := range nodes {
		if first {
			q, first = n.CurrentQuorum(), false
		} else if !n.CurrentQuorum().Equal(q) {
			return ids.Quorum{}, false
		}
	}
	return q, true
}

// process builds p's members and returns the node that hosts them.
func (c *Cluster) process(p ids.ProcessID) runtime.Node {
	ms := make([]Member, c.shards)
	c.members[p] = ms
	shard := func(s int) runtime.Node {
		ms[s] = c.build(Site{Proc: p, Shard: s, Backend: c.backends[p]})
		if ms[s].Node == nil {
			ms[s].Node = silent{}
			c.down.Add(p)
		}
		return ms[s].Node
	}
	if c.shards == 1 {
		return shard(0)
	}
	return fleet.New(fleet.Options{Shards: c.shards, NewShard: shard})
}

// silent is a process that is down: it never speaks.
type silent struct{}

func (silent) Init(runtime.Env)                    {}
func (silent) Receive(ids.ProcessID, wire.Message) {}

// Member returns p's current member of shard.
func (c *Cluster) Member(p ids.ProcessID, shard int) Member { return c.members[p][shard] }

// Running reports whether p is up (built with a node and not crashed).
func (c *Cluster) Running(p ids.ProcessID) bool { return !c.down.Contains(p) }

// Crash takes p down through the host lifecycle. A hard crash models
// power loss: the backend first drops every write that was not durably
// synced and invalidates the live file handles. A plain crash is a
// process kill whose final flush still reaches disk.
func (c *Cluster) Crash(p ids.ProcessID, hard bool) {
	if hard {
		c.backends[p].Crash()
	}
	c.down.Add(p)
	c.Net.StopProcess(p)
}

// Restart resurrects p as freshly built members over its old backend —
// the only state that legitimately survives a crash. A composition that
// ignores the backend comes back with total amnesia.
func (c *Cluster) Restart(p ids.ProcessID) {
	c.down.Remove(p)
	c.Net.ReplaceProcess(p, c.process(p))
}

// Submit hands req to one running member of shard the way a client
// would: to the leader when members expose IsLeader and it is up (no
// forwarding hop), else to the lowest-identifier running member, which
// forwards. Processes in avoid are never chosen. It reports false when
// no member qualifies — the caller's retry is what reaches the cluster
// once something is back up.
func (c *Cluster) Submit(shard int, req *wire.Request, avoid ids.ProcSet) bool {
	var entry *Member
	for _, p := range c.cfg.All() {
		m := &c.members[p][shard]
		if c.down.Contains(p) || m.Submit == nil || avoid.Contains(p) {
			continue
		}
		if entry == nil {
			entry = m
		}
		if m.IsLeader != nil && m.IsLeader() {
			entry = m
			break
		}
	}
	if entry == nil {
		return false
	}
	entry.Submit(req)
	return true
}

// history returns p's executions in shard, nil for a member without
// one.
func (c *Cluster) history(p ids.ProcessID, shard int) []xpaxos.Execution {
	if h := c.members[p][shard].History; h != nil {
		return h()
	}
	return nil
}

// Executed returns how many distinct sequence numbers of client the
// shard's most advanced member has executed, and which member that is.
// It measures progress of the system, not of every replica: a
// non-quorum replica may legitimately trail until lazy replication or
// catch-up reaches it.
func (c *Cluster) Executed(shard int, client uint64) (int, ids.ProcessID) {
	best, bestProc := -1, ids.ProcessID(0)
	for _, p := range c.cfg.All() {
		seen := make(map[uint64]bool)
		for _, e := range c.history(p, shard) {
			if e.Client == client {
				seen[e.Seq] = true
			}
		}
		if len(seen) > best {
			best, bestProc = len(seen), p
		}
	}
	return best, bestProc
}

// HistoriesAgree verifies replicated-history agreement across the
// shard's members: each executes in non-decreasing slot order, and any
// slot executed by two of them carries the same batch — same length,
// and per entry the same client, sequence number, operation and result.
// It also rejects a member that executed one (client, seq) twice: every
// protocol executes through xpaxos.Ledger, which runs each once.
// Alignment is by slot, not list index: a member that caught up through
// a checkpoint transfer legitimately skips the slots the checkpoint
// subsumes. Crashed members keep their frozen history and stay in the
// comparison.
func (c *Cluster) HistoriesAgree(shard int) error {
	type request struct{ client, seq uint64 }
	procs := c.cfg.All()
	hists := make([][]xpaxos.Execution, len(procs))
	for i, p := range procs {
		h := c.history(p, shard)
		// A batched slot executes one entry per request, all under the
		// same slot number.
		for k := 1; k < len(h); k++ {
			if h[k].Slot < h[k-1].Slot {
				return fmt.Errorf("%s executed slot %d after slot %d (out of order)",
					p, h[k].Slot, h[k-1].Slot)
			}
		}
		ran := make(map[request]uint64, len(h))
		for _, e := range h {
			k := request{e.Client, e.Seq}
			if slot, dup := ran[k]; dup {
				return fmt.Errorf("%s executed client=%d seq=%d twice (slots %d and %d)",
					p, e.Client, e.Seq, slot, e.Slot)
			}
			ran[k] = e.Slot
		}
		hists[i] = h
	}
	for i := 0; i < len(procs); i++ {
		for j := i + 1; j < len(procs); j++ {
			a, b := hists[i], hists[j]
			for x, y := 0, 0; x < len(a) && y < len(b); {
				if a[x].Slot < b[y].Slot {
					x++
					continue
				}
				if a[x].Slot > b[y].Slot {
					y++
					continue
				}
				s := a[x].Slot
				x2, y2 := x, y
				for x2 < len(a) && a[x2].Slot == s {
					x2++
				}
				for y2 < len(b) && b[y2].Slot == s {
					y2++
				}
				if x2-x != y2-y {
					return fmt.Errorf("histories diverge at slot %d: %s executed %d requests, %s executed %d",
						s, procs[i], x2-x, procs[j], y2-y)
				}
				for k := 0; k < x2-x; k++ {
					ea, eb := a[x+k], b[y+k]
					if ea.Client != eb.Client || ea.Seq != eb.Seq ||
						!bytes.Equal(ea.Op, eb.Op) || !bytes.Equal(ea.Result, eb.Result) {
						return fmt.Errorf(
							"histories diverge at slot %d: %s executed client=%d seq=%d, %s executed client=%d seq=%d",
							s, procs[i], ea.Client, ea.Seq, procs[j], eb.Client, eb.Seq)
					}
				}
				x, y = x2, y2
			}
		}
	}
	return nil
}

// LAN is the link model of a run without a topology: 2–12 ms uniform,
// inside what the default failure-detector timeouts tolerate.
var LAN = sim.UniformLatency(2*time.Millisecond, 12*time.Millisecond)

// Links sets the run's link model on opts and returns the
// failure-detector options that fit it. Without a topology that is LAN
// and the defaults. With one, its latency model replaces LAN, its
// partition windows chain in front of opts.Filter, and the timeouts are
// scaled to its worst one-way delay (fd.Options.ScaledTo) — so every
// driver running over the same topology agrees on WAN timeouts.
func Links(topo *sim.BoundTopology, opts *sim.Options) fd.Options {
	if topo == nil {
		opts.Latency = LAN
		return fd.DefaultOptions()
	}
	opts.Latency = topo.LatencyModel()
	opts.Filter = sim.ChainFilters(topo.LinkFilter(), opts.Filter)
	return fd.DefaultOptions().ScaledTo(topo.MaxOneWay())
}

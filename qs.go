package quorumselect

import (
	"time"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/fd"
	"quorumselect/internal/fleet"
	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/quorum"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
	"quorumselect/internal/suspicion"
	"quorumselect/internal/tendermint"
	"quorumselect/internal/transport"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// Core identity and quorum types (see internal/ids).
type (
	// ProcessID identifies a process in Π (1-based, paper notation).
	ProcessID = ids.ProcessID
	// Config holds the replication parameters n and f (q = n−f).
	Config = ids.Config
	// ProcSet is a set of processes.
	ProcSet = ids.ProcSet
	// Quorum is a selected quorum, optionally with a designated leader.
	Quorum = ids.Quorum
)

// Module types re-exported for composition (see the internal packages
// for full documentation).
type (
	// Detector is the expectation-driven Byzantine failure detector
	// (§IV-B).
	Detector = fd.Detector
	// DetectorOptions tunes the failure detector.
	DetectorOptions = fd.Options
	// Store is the eventually-consistent suspicion matrix (§VI-A).
	Store = suspicion.Store
	// Selector is Algorithm 1's quorum-selection state machine.
	Selector = core.Selector
	// FollowerSelector is Algorithm 2's follower-selection state
	// machine (§VIII).
	FollowerSelector = follower.Selector
	// Node is a fully composed Quorum Selection process (Fig 1).
	Node = core.Node
	// NodeOptions configures a composed process.
	NodeOptions = core.NodeOptions
	// FollowerNode is a fully composed Follower Selection process; it
	// takes the same NodeOptions as Node.
	FollowerNode = follower.Node
	// Application is the interface replicated services implement to
	// sit on top of selection (XPaxos implements it).
	Application = core.Application
	// XPaxosReplica is an XPaxos state-machine-replication replica
	// with the §V failure-detector integration.
	XPaxosReplica = xpaxos.Replica
	// Authenticator signs and verifies protocol messages.
	Authenticator = crypto.Authenticator
	// Message is a protocol wire message.
	Message = wire.Message
	// Request is a client operation for the replicated state machine.
	Request = wire.Request
	// XPaxosOptions configures an XPaxos replica.
	XPaxosOptions = xpaxos.Options
	// StateMachine is the deterministic replicated application.
	StateMachine = xpaxos.StateMachine
	// KVMachine is a ready-made key-value state machine.
	KVMachine = xpaxos.KVMachine
	// Execution records one executed request.
	Execution = xpaxos.Execution
	// Env is the execution environment protocol nodes run against.
	Env = runtime.Env
	// RuntimeNode is the interface the simulator and TCP transport
	// drive.
	RuntimeNode = runtime.Node
	// Registry collects counters, gauges and histograms for
	// experiments and the /metrics endpoint.
	Registry = metrics.Registry
	// EventBus is the observability stream: one bounded ring of typed
	// records, protocol events and commit-path spans in one order (see
	// internal/obs). EventBus and Tracer are one type.
	EventBus = obs.Bus
	// Event is one record of the stream: a protocol event (EXPECT,
	// SUSPECTED, ...) or, with type SPAN, a commit-path span.
	Event = obs.Event
	// EventType classifies the stream's records.
	EventType = obs.Type
	// Tracer is the same type as EventBus, under the name of the one
	// stream field: wire one into HostConfig.Tracer (TCP) or
	// SimOptions.Tracer, or leave the field nil for a fresh stream with
	// spans off.
	Tracer = obs.Bus
	// TraceSpan is the span view of one recorded commit-path stage.
	TraceSpan = obs.Span
	// StorageBackend is the durable-storage interface a composed node
	// persists through (see NodeOptions.Storage).
	StorageBackend = storage.Backend
	// Fleet runs several independent replication groups (shards) behind
	// one transport endpoint, multiplexed over one connection per peer
	// pair (see internal/fleet).
	Fleet = fleet.Fleet
	// FleetOptions configures a Fleet (shard count and per-shard node
	// factory).
	FleetOptions = fleet.Options
	// ShardRouter is the consistent-hash key → shard router fleet
	// frontends use.
	ShardRouter = fleet.Router
	// QuorumSystem is a generalized Byzantine quorum system (threshold,
	// weighted, or slice-based); wire one into NodeOptions.Quorum /
	// XPaxosOptions.System to run selection and the certificate path on
	// a non-threshold spec (see internal/quorum).
	QuorumSystem = quorum.System
	// QuorumCheckOptions tune the intersection/availability checker.
	QuorumCheckOptions = quorum.CheckOptions
	// QuorumReport is the checker's verdict (intersection, availability,
	// witnesses, and — when sampled — the confidence bound).
	QuorumReport = quorum.Report
)

// NewEventBus returns a stream retaining up to capacity records, spans
// off (capacity <= 0 selects the default, obs.DefaultCapacity).
func NewEventBus(capacity int) *EventBus { return obs.NewBus(capacity) }

// NewTracer is NewEventBus with spans on.
func NewTracer(capacity int) *Tracer {
	t := obs.NewBus(capacity)
	t.SetEnabled(true)
	return t
}

// NewConfig validates and returns a system configuration; it enforces
// the paper's n − f > f assumption.
func NewConfig(n, f int) (Config, error) { return ids.NewConfig(n, f) }

// MustConfig is NewConfig panicking on error.
func MustConfig(n, f int) Config { return ids.MustConfig(n, f) }

// NewProcSet builds a process set.
func NewProcSet(ps ...ProcessID) ProcSet { return ids.NewProcSet(ps...) }

// NewQuorum builds a quorum from members.
func NewQuorum(members []ProcessID) Quorum { return ids.NewQuorum(members) }

// ParseQuorumSpec parses a quorum-system spec string —
// "threshold:n=4;f=1", "weighted:w=3,1,1,1;t=4", or
// "slices:n=4;1={2,3}|{3,4};..." — into a QuorumSystem. Parsing only
// validates well-formedness; run CheckQuorumSystem before trusting a
// spec with safety.
func ParseQuorumSpec(spec string) (QuorumSystem, error) { return quorum.ParseSpec(spec) }

// CheckQuorumSystem verifies quorum intersection and f-availability of
// a system: exactly (bitset enumeration) up to the configured size,
// seeded randomized sampling with a reported confidence bound beyond.
// Report.Err() is non-nil for an unsafe or unavailable spec.
func CheckQuorumSystem(sys QuorumSystem, opts QuorumCheckOptions) QuorumReport {
	return quorum.Check(sys, opts)
}

// DefaultNodeOptions returns the standard Quorum Selection composition:
// adaptive failure detection, update forwarding, 25ms heartbeats.
func DefaultNodeOptions() NodeOptions { return core.DefaultNodeOptions() }

// NewNode creates a composed Quorum Selection process (Algorithm 1).
func NewNode(opts NodeOptions) *Node { return core.NewNode(opts) }

// NewFollowerNode creates a composed Follower Selection process
// (Algorithm 2); the configuration must satisfy n > 3f, and
// opts.Storage must be nil (see follower.NewNode).
func NewFollowerNode(opts NodeOptions) *FollowerNode { return follower.NewNode(opts) }

// NewXPaxosNode creates an XPaxos replica composed with the full
// quorum-selection stack. The returned node runs on the simulator or a
// TCP host; the replica is the application handle (Submit, Executions).
func NewXPaxosNode(opts XPaxosOptions, nodeOpts NodeOptions) (*Node, *XPaxosReplica) {
	return xpaxos.NewQSNode(opts, nodeOpts)
}

// NewKVMachine returns an empty key-value state machine.
func NewKVMachine() *KVMachine { return xpaxos.NewKVMachine() }

// NewDirStorage opens (creating if needed) a directory-backed durable
// storage backend. Wire it into NodeOptions.Storage to make a node's
// protocol state survive crashes.
func NewDirStorage(dir string) (StorageBackend, error) { return storage.NewDirBackend(dir) }

// SubStorage returns the named sub-tree of a backend (per-shard
// durability: each shard of a fleet persists into its own sub-tree of
// the process's storage root). Errors if the backend cannot nest.
func SubStorage(parent StorageBackend, name string) (StorageBackend, error) {
	return storage.Sub(parent, name)
}

// NewFleet builds a sharded replica fleet: opts.Shards independent
// replication groups behind one RuntimeNode, so all shards of a peer
// pair share one transport connection. See internal/fleet.
func NewFleet(opts FleetOptions) *Fleet { return fleet.New(opts) }

// NewShardRouter builds the deterministic consistent-hash key → shard
// router for a fleet of the given width.
func NewShardRouter(shards int) *ShardRouter { return fleet.NewRouter(shards) }

// ShardDomain is the signing domain of one shard group (see
// internal/fleet: the routing label is unsigned; domain separation is
// what keeps misrouted frames from verifying).
func ShardDomain(shard int) string { return crypto.ShardDomain(shard) }

// FirstViewLedBy returns the first view of the quorum enumeration led
// by p — the lever fleets use to stagger shard leaders across
// processes.
func FirstViewLedBy(cfg Config, p ProcessID) (uint64, bool) {
	return xpaxos.FirstViewLedBy(cfg, p)
}

// Tendermint-style consensus (the §X future-work integration).
type (
	// ConsensusReplica is the round-based, proposer-rotating BFT
	// engine integrated with quorum selection.
	ConsensusReplica = tendermint.Replica
	// ConsensusOptions configures a ConsensusReplica.
	ConsensusOptions = tendermint.Options
)

// NewConsensusNode composes a Tendermint-style consensus replica with
// the full quorum-selection stack.
func NewConsensusNode(opts ConsensusOptions, nodeOpts NodeOptions) (*Node, *ConsensusReplica) {
	return tendermint.NewQSNode(opts, nodeOpts)
}

// ClusterOptions configures a simulated cluster.
type ClusterOptions struct {
	// Node configures every process of NewSimulatedCluster and
	// NewSimulatedFollowerCluster; nil means DefaultNodeOptions.
	Node *NodeOptions
	// Seed drives all simulation randomness.
	Seed int64
	// LatencyMin/LatencyMax bound the per-message link latency; both
	// zero selects the simulator default (10ms constant).
	LatencyMin, LatencyMax time.Duration
}

// node returns the options every process is built with.
func (o ClusterOptions) node() NodeOptions {
	if o.Node != nil {
		return *o.Node
	}
	return DefaultNodeOptions()
}

// simOptions maps the options onto the simulator's: the seed, and the
// latency band as a constant model when it is a single point.
func (o ClusterOptions) simOptions() sim.Options {
	so := sim.Options{Seed: o.Seed}
	switch {
	case o.LatencyMin == 0 && o.LatencyMax == 0:
	case o.LatencyMax <= o.LatencyMin:
		so.Latency = sim.ConstantLatency(o.LatencyMin)
	default:
		so.Latency = sim.UniformLatency(o.LatencyMin, o.LatencyMax)
	}
	return so
}

// Simulation is a deployment on the deterministic discrete-event
// network. NewSimulatedClusterOf drives arbitrary protocol nodes with it
// — for compositions the selector clusters do not cover (XPaxos or
// consensus replicas, custom Byzantine nodes); Cluster and
// FollowerCluster embed it.
type Simulation struct {
	net *sim.Network
}

// NewSimulatedClusterOf builds a simulated network driving the given
// nodes; a process in cfg without one stays silent.
func NewSimulatedClusterOf(cfg Config, nodes map[ProcessID]RuntimeNode, opts ClusterOptions) *Simulation {
	net, _ := cluster.Nodes(cfg, func(p ProcessID) (RuntimeNode, bool) {
		n, ok := nodes[p]
		return n, ok
	}, opts.simOptions())
	return &Simulation{net}
}

// Run advances virtual time to the given instant, processing all due
// events.
func (s *Simulation) Run(until time.Duration) { s.net.Run(until) }

// RunUntil processes events until pred holds or maxTime passes.
func (s *Simulation) RunUntil(pred func() bool, maxTime time.Duration) bool {
	return s.net.RunUntil(pred, maxTime)
}

// Now returns the virtual time.
func (s *Simulation) Now() time.Duration { return s.net.Now() }

// Metrics returns the run's counter registry.
func (s *Simulation) Metrics() *Registry { return s.net.Metrics() }

// Events returns the run's observability stream.
func (s *Simulation) Events() *EventBus { return s.net.Events() }

// Close stops every node through the host lifecycle (heartbeats
// silenced, timers canceled) and discards queued events. Idempotent.
func (s *Simulation) Close() { s.net.Close() }

// Cluster is a simulated Quorum Selection deployment: one composed Node
// per process on a deterministic discrete-event network.
type Cluster struct {
	Simulation
	nodes map[ProcessID]*Node
}

// NewSimulatedCluster builds and initializes a simulated cluster.
func NewSimulatedCluster(cfg Config, opts ClusterOptions) *Cluster {
	nodeOpts := opts.node()
	net, nodes := cluster.Nodes(cfg, func(ProcessID) (*Node, bool) { return NewNode(nodeOpts), true }, opts.simOptions())
	return &Cluster{Simulation{net}, nodes}
}

// Node returns the composed process p.
func (c *Cluster) Node(p ProcessID) *Node { return c.nodes[p] }

// Agreed reports whether every node currently holds the same quorum,
// and returns it.
func (c *Cluster) Agreed() (Quorum, bool) { return cluster.Agreed(c.nodes) }

// FollowerCluster is a simulated Follower Selection deployment.
type FollowerCluster struct {
	Simulation
	nodes map[ProcessID]*FollowerNode
}

// NewSimulatedFollowerCluster builds a simulated Follower Selection
// cluster (requires n > 3f).
func NewSimulatedFollowerCluster(cfg Config, opts ClusterOptions) *FollowerCluster {
	nodeOpts := opts.node()
	net, nodes := cluster.Nodes(cfg, func(ProcessID) (*FollowerNode, bool) { return NewFollowerNode(nodeOpts), true }, opts.simOptions())
	return &FollowerCluster{Simulation{net}, nodes}
}

// Node returns the composed process p.
func (c *FollowerCluster) Node(p ProcessID) *FollowerNode { return c.nodes[p] }

// Agreed reports whether every node holds the same leader quorum, and
// returns it.
func (c *FollowerCluster) Agreed() (Quorum, bool) { return cluster.Agreed(c.nodes) }

// HostConfig configures a real TCP process (see internal/transport).
type HostConfig = transport.Config

// Host runs a composed node over TCP.
type Host = transport.Host

// NewTCPHost starts a protocol node on a real TCP listener.
func NewTCPHost(cfg HostConfig, node RuntimeNode) (*Host, error) {
	return transport.NewHost(cfg, node)
}

// NewHMACAuth derives per-process HMAC-SHA256 authenticators from a
// shared master secret — the cheap option for trusted-LAN deployments.
func NewHMACAuth(cfg Config, master []byte) Authenticator {
	return crypto.NewHMACRing(cfg, master)
}

// NewEd25519Auth generates a fresh ed25519 keyring for all processes
// (deterministic from the seed when seeded ≠ 0 is required, pass nil
// reader semantics via the crypto package directly).
func NewEd25519Auth(cfg Config) (Authenticator, error) {
	return crypto.NewEd25519Ring(cfg, nil)
}

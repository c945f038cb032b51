package fleet

import (
	"fmt"
	"math/rand"
	"time"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// Options configures a Fleet.
type Options struct {
	// Shards is the number of independent replication groups (>= 1).
	Shards int
	// NewShard builds the protocol node of one shard group — typically
	// a full core.Node over xpaxos with that shard's storage sub-tree
	// and a staggered InitialView. Called once per shard at New.
	NewShard func(shard int) runtime.Node
}

// Fleet runs Options.Shards independent shard kernels behind one
// runtime.Node: one transport connection per peer pair carries every
// shard's traffic (wire.ShardEnvelope multiplexing), and each shard
// sees a shard-scoped Env — domain-separated authenticator, shared
// clock, loop, and metrics registry.
type Fleet struct {
	opts   Options
	env    runtime.Env
	nodes  []runtime.Node
	shards []*shardEnv
}

var (
	_ runtime.Node    = (*Fleet)(nil)
	_ runtime.Stopper = (*Fleet)(nil)
)

// New builds an unstarted fleet; the simulator or transport calls
// Init. It panics on a shard count < 1 or a missing factory — both
// programming errors.
func New(opts Options) *Fleet {
	if opts.Shards < 1 {
		panic(fmt.Sprintf("fleet: need >= 1 shard, got %d", opts.Shards))
	}
	if opts.NewShard == nil {
		panic("fleet: Options.NewShard is required")
	}
	f := &Fleet{opts: opts, nodes: make([]runtime.Node, opts.Shards)}
	for s := range f.nodes {
		f.nodes[s] = opts.NewShard(s)
	}
	return f
}

// Shards returns the shard count.
func (f *Fleet) Shards() int { return f.opts.Shards }

// Shard returns shard s's protocol node (for frontends and tests that
// need the underlying replica; all interaction must stay on the
// process's event loop, as with any node).
func (f *Fleet) Shard(s int) runtime.Node { return f.nodes[s] }

// Init implements runtime.Node: every shard kernel is initialized with
// its shard-scoped environment, in shard order, on the caller's loop.
// Re-Init after a crash is per-shard recovery in the same order: each
// kernel reopens its own storage sub-tree independently, so one
// shard's corrupt state never blocks its siblings' recovery.
func (f *Fleet) Init(env runtime.Env) {
	f.env = env
	f.shards = make([]*shardEnv, f.opts.Shards)
	for s := range f.shards {
		label := metrics.L{Key: "shard", Value: fmt.Sprintf("%d", s)}
		f.shards[s] = &shardEnv{
			shard:    s,
			outer:    env,
			auth:     crypto.NewDomainAuth(env.Auth(), crypto.ShardDomain(s)),
			sent:     env.Metrics().CounterHandle("fleet.shard.sent", label),
			received: env.Metrics().CounterHandle("fleet.shard.received", label),
		}
	}
	for s, n := range f.nodes {
		n.Init(f.shards[s])
	}
	env.Metrics().SetGauge("fleet.shards", float64(f.opts.Shards))
}

// Receive implements runtime.Node: demultiplex one envelope to its
// shard. Anything else is dropped and counted — correct fleet peers
// wrap every frame, so bare traffic is a mis-deployment (a non-fleet
// process dialed in) or line garbage, never protocol input. The
// envelope arrives opened and authenticated (runtime.Authenticate
// checked its inner message under the domain of the shard it names), so
// a relabeled signed frame never gets here (fd.dropped.badsig). An
// envelope naming a shard this fleet does not run is counted as
// misrouted.
func (f *Fleet) Receive(from ids.ProcessID, m wire.Message) {
	env, ok := m.(*wire.ShardEnvelope)
	if !ok {
		f.env.Metrics().Inc("fleet.unwrapped.dropped", 1)
		return
	}
	if int(env.Shard) >= len(f.nodes) {
		f.env.Metrics().Inc("fleet.misrouted.dropped", 1)
		return
	}
	f.shards[env.Shard].received.Inc()
	f.nodes[env.Shard].Receive(from, env.Inner)
}

// Stop implements runtime.Stopper: tear every shard kernel down.
func (f *Fleet) Stop() {
	for _, n := range f.nodes {
		runtime.StopNode(n)
	}
}

// shardEnv is the Env one shard kernel runs against: the outer
// process Env with shard-wrapped sending and a domain-separated
// authenticator. Clock, loop, randomness,
// observability stream, and metrics registry are shared across the
// process's shards, so cross-shard event order stays a deterministic
// property of the one loop.
type shardEnv struct {
	shard int
	outer runtime.Env
	auth  *crypto.DomainAuth

	sent, received *metrics.CounterHandle // fleet.shard.{sent,received}{shard}
}

var _ runtime.Env = (*shardEnv)(nil)

func (e *shardEnv) ID() ids.ProcessID          { return e.outer.ID() }
func (e *shardEnv) Config() ids.Config         { return e.outer.Config() }
func (e *shardEnv) Now() time.Duration         { return e.outer.Now() }
func (e *shardEnv) Rand() *rand.Rand           { return e.outer.Rand() }
func (e *shardEnv) Auth() crypto.Authenticator { return e.auth }
func (e *shardEnv) Metrics() *metrics.Registry { return e.outer.Metrics() }
func (e *shardEnv) Events() *obs.Bus           { return e.outer.Events() }

func (e *shardEnv) After(d time.Duration, fn func()) runtime.Timer {
	return e.outer.After(d, fn)
}

// Send wraps the message in this shard's envelope; the outer Send
// encodes both in one pass into the transport frame (or the
// simulator's delivery buffer).
func (e *shardEnv) Send(to ids.ProcessID, m wire.Message) {
	e.sent.Inc()
	e.outer.Send(to, &wire.ShardEnvelope{Shard: uint32(e.shard), Inner: m})
}

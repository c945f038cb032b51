package chaos

import (
	"fmt"
	"strings"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/fd"
	"quorumselect/internal/obs"
	"quorumselect/internal/pbftlite"
	"quorumselect/internal/sim"
	"quorumselect/internal/xpaxos"
)

// Protocol names a cluster composition the harness can fuzz.
type Protocol string

// The compositions under test.
const (
	// ProtocolQS is the core-only quorum-selection stack (no
	// application): Figure 1 without an SMR on top. Its crash faults
	// restart stateless, because Host.Init rebuilds all protocol state
	// from scratch.
	ProtocolQS Protocol = "qs"
	// ProtocolXPaxos is XPaxos composed with quorum selection.
	ProtocolXPaxos Protocol = "xpaxos"
	// ProtocolPBFT is the PBFT-style ActiveQuorum replica composed with
	// quorum selection. It has no view-change recovery for dropped
	// slots, so the harness checks safety only.
	ProtocolPBFT Protocol = "pbftlite"
)

// AllProtocols returns every protocol, in stable order.
func AllProtocols() []Protocol {
	return []Protocol{ProtocolQS, ProtocolXPaxos, ProtocolPBFT}
}

// ParseProtocols parses a comma-separated protocol list; "all" or ""
// selects every protocol.
func ParseProtocols(s string) ([]Protocol, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return AllProtocols(), nil
	}
	known := make(map[Protocol]bool)
	for _, p := range AllProtocols() {
		known[p] = true
	}
	var out []Protocol
	for _, part := range strings.Split(s, ",") {
		p := Protocol(strings.TrimSpace(part))
		if !known[p] {
			return nil, fmt.Errorf("chaos: unknown protocol %q", p)
		}
		out = append(out, p)
	}
	return out, nil
}

// smr reports whether the protocol carries a replicated history. Every
// such protocol (xpaxos, pbftlite) is composed with a per-member
// storage backend and restarts by recovering its durable state from it,
// so crash-restart recovery is checked too; the core-only stack
// restarts stateless.
func (p Protocol) smr() bool { return p != ProtocolQS }

// checksLiveness reports whether the harness may demand post-fault
// progress. pbftlite is excluded: without view changes, one dropped
// PRE-PREPARE stalls in-order execution forever by design.
func (p Protocol) checksLiveness() bool { return p == ProtocolXPaxos }

// settles reports whether the composition quiesces once faults stop,
// which is what the quorum-selection Agreement and Termination checks
// assume. pbftlite is excluded for the same reason it skips liveness: a
// slot stuck on a dropped PRE-PREPARE keeps failing protocol-level
// expectations forever, so suspicions — and with them quorums — keep
// churning by design and never converge.
func (p Protocol) settles() bool { return p != ProtocolPBFT }

// boot builds the protocol's composition for every process and shard
// on a seeded cluster. All runs authenticate with a real (HMAC) ring:
// chaos mutates frames, and only unforgeable signatures make "a
// corrupted signed message is dropped, not attributed" hold the way the
// paper assumes.
func (r *RunState) boot(sch *schedule) {
	run := r.Config
	r.bus = obs.NewBus(0)
	r.bus.SetEnabled(true)
	opts := sim.Options{
		Metrics:      run.Metrics,
		Seed:         r.seed,
		Filter:       sch.Filter,
		Auth:         crypto.NewHMACRing(r.cfg, []byte("chaos-master")),
		Tracer:       r.bus,
		AllowReorder: run.Reorder,
	}
	fdOpts := cluster.Links(run.Topology, &opts)
	r.cluster = cluster.New(r.cfg, run.Shards, func(at cluster.Site) cluster.Member {
		return member(run, sch, at, fdOpts)
	}, opts)
}

// member composes one site of the run's protocol, durable protocols
// over the site's backend (one sub-tree per shard when there are
// several).
func member(run Config, sch *schedule, at cluster.Site, fdOpts fd.Options) cluster.Member {
	nodeOpts := core.DefaultNodeOptions()
	nodeOpts.FD = fdOpts
	if run.Protocol.smr() {
		at.Backend.SetSkipSync(run.TamperSkipSync)
		nodeOpts.Storage = at.Backend
		if run.Shards > 1 {
			sub, err := at.Backend.Sub(fmt.Sprintf("shard-%d", at.Shard))
			if err != nil {
				panic(err) // a MemBackend always nests, and the name is valid
			}
			nodeOpts.Storage = sub
		}
	}
	xo := xpaxos.Options{
		CheckpointInterval: 8,
		BatchSize:          run.BatchSize,
		Window:             run.Window,
	}
	if sch.site != nil {
		sch.site(at, &nodeOpts, &xo)
	}
	var m cluster.Member
	switch run.Protocol {
	case ProtocolQS:
		m.Node = core.NewNode(nodeOpts)
	case ProtocolXPaxos:
		n, rep := xpaxos.NewQSNode(xo, nodeOpts)
		m.Node, m.Submit, m.History = n, rep.Submit, rep.Executions
	case ProtocolPBFT:
		n, rep := pbftlite.NewQSNode(pbftlite.Options{}, nodeOpts)
		m.Node, m.Submit, m.History = n, rep.Submit, rep.Executions
	default:
		panic(fmt.Sprintf("chaos: unknown protocol %q", run.Protocol))
	}
	if tamper, raw := run.TamperHistory, m.History; tamper != nil && raw != nil {
		m.History = func() []xpaxos.Execution { return tamper(at.Proc, raw()) }
	}
	return m
}

package xpaxos

import (
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/fd"
	"quorumselect/internal/host"
	"quorumselect/internal/runtime"
	"quorumselect/internal/storage"
)

// NewQSNode composes an XPaxos replica with the full quorum-selection
// stack of Figure 1 (failure detector, suspicion store, Algorithm 1
// selector). The returned node and replica run in ModeQuorumSelection.
// The quorum system may arrive on either options struct (Options.System
// for the replica, NodeOptions.Quorum for the selector); NewQSNode
// syncs them so the certificate path and the selection path can never
// disagree on what a quorum is.
func NewQSNode(opts Options, nodeOpts core.NodeOptions) (*core.Node, *Replica) {
	opts.Mode = ModeQuorumSelection
	if opts.System == nil {
		opts.System = nodeOpts.Quorum
	} else if nodeOpts.Quorum == nil {
		nodeOpts.Quorum = opts.System
	} else if opts.System.String() != nodeOpts.Quorum.String() {
		panic("xpaxos: Options.System and NodeOptions.Quorum disagree")
	}
	r := NewReplica(opts)
	nodeOpts.App = r
	return core.NewNode(nodeOpts), r
}

// StandaloneOptions configures an enumeration-baseline node.
type StandaloneOptions struct {
	// FD configures the failure detector.
	FD fd.Options
	// HeartbeatPeriod enables heartbeat traffic when positive.
	HeartbeatPeriod time.Duration
	// Replica configures the XPaxos replica (Mode is forced to
	// ModeEnumeration).
	Replica Options
	// Storage, when set, makes the node durable (see
	// host.Options.Storage).
	Storage storage.Backend
}

// DefaultStandaloneOptions mirrors core.DefaultNodeOptions.
func DefaultStandaloneOptions() StandaloneOptions {
	return StandaloneOptions{
		FD:              fd.DefaultOptions(),
		HeartbeatPeriod: 25 * time.Millisecond,
	}
}

// StandaloneNode runs an XPaxos replica in the original quorum-change
// regime (ModeEnumeration): network → failure detector → replica, with
// no quorum-selection module. It is the replica-host kernel without a
// selection module, with FD suspicions feeding the replica directly to
// trigger next-quorum view changes.
type StandaloneNode struct {
	*host.Host
	Replica *Replica
}

var (
	_ runtime.Node    = (*StandaloneNode)(nil)
	_ runtime.Stopper = (*StandaloneNode)(nil)
)

// NewStandaloneNode creates an unstarted enumeration-baseline node.
func NewStandaloneNode(opts StandaloneOptions) *StandaloneNode {
	opts.Replica.Mode = ModeEnumeration
	r := NewReplica(opts.Replica)
	return &StandaloneNode{
		Host: host.New(host.Options{
			FD:              opts.FD,
			HeartbeatPeriod: opts.HeartbeatPeriod,
			App:             r,
			OnSuspect:       r.OnSuspected,
			Storage:         opts.Storage,
		}),
		Replica: r,
	}
}

package pbftlite

import (
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/fd"
	"quorumselect/internal/host"
	"quorumselect/internal/runtime"
)

// NewQSNode composes an ActiveQuorum replica with the quorum-selection
// stack: the selection module picks which n−f replicas exchange
// normal-case traffic.
func NewQSNode(opts Options, nodeOpts core.NodeOptions) (*core.Node, *Replica) {
	opts.Regime = ActiveQuorum
	r := NewReplica(opts)
	nodeOpts.App = r
	return core.NewNode(nodeOpts), r
}

// StandaloneNode runs a BroadcastAll replica with just a failure
// detector (suspicions are recorded but masked, as in classic PBFT).
// It is the replica-host kernel without a selection module and with a
// nil OnSuspect.
type StandaloneNode struct {
	*host.Host
	Replica *Replica
}

var (
	_ runtime.Node    = (*StandaloneNode)(nil)
	_ runtime.Stopper = (*StandaloneNode)(nil)
)

// NewStandaloneNode creates an unstarted broadcast-all node.
func NewStandaloneNode(opts Options, fdOpts fd.Options, hbPeriod time.Duration) *StandaloneNode {
	opts.Regime = BroadcastAll
	r := NewReplica(opts)
	return &StandaloneNode{
		Host: host.New(host.Options{
			FD:              fdOpts,
			HeartbeatPeriod: hbPeriod,
			App:             r,
			// OnSuspect stays nil: suspicions are masked, not acted on
			// (classic PBFT).
		}),
		Replica: r,
	}
}

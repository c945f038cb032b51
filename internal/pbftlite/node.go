package pbftlite

import (
	"quorumselect/internal/core"
	"quorumselect/internal/host"
)

// NewQSNode composes an ActiveQuorum replica with the quorum-selection
// stack: the selection module picks which n−f replicas exchange
// normal-case traffic.
func NewQSNode(opts Options, nodeOpts core.NodeOptions) (*core.Node, *Replica) {
	r := newReplica(opts, false)
	nodeOpts.App = r
	return core.NewNode(nodeOpts), r
}

// NewStandaloneNode composes a BroadcastAll replica with just a failure
// detector: the replica-host kernel without a selection module, whose
// suspicions are recorded but masked, as in classic PBFT.
// nodeOpts.Store and nodeOpts.Quorum are unused: every replica in Π
// participates and votes count to 2f+1.
func NewStandaloneNode(opts Options, nodeOpts core.NodeOptions) (*host.Host, *Replica) {
	r := newReplica(opts, true)
	nodeOpts.App = r
	return core.NewHost(nodeOpts, nil, nil), r
}

package xpaxos

import (
	"quorumselect/internal/core"
	"quorumselect/internal/host"
)

// NewQSNode composes an XPaxos replica with the full quorum-selection
// stack of Figure 1 (failure detector, suspicion store, Algorithm 1
// selector): the selection module issues ⟨QUORUM⟩ and the replica
// installs each issued quorum by a view change (§V-B, OnQuorum). The
// selector and the replica both run on nodeOpts.Quorum, so the
// selection path and the certificate path cannot disagree on what a
// quorum is.
func NewQSNode(opts Options, nodeOpts core.NodeOptions) (*core.Node, *Replica) {
	r := newReplica(opts, nodeOpts.Quorum)
	nodeOpts.App = r
	return core.NewNode(nodeOpts), r
}

// NewStandaloneNode composes the original XPaxos baseline (Liu et al.):
// network → failure detector → replica, with no selection module. The
// detector's ⟨SUSPECTED⟩ goes straight to the replica, which walks the
// enumeration of nodeOpts.Quorum's minimal quorums (onSuspected).
// nodeOpts.Store is unused, as there is no suspicion store.
func NewStandaloneNode(opts Options, nodeOpts core.NodeOptions) (*host.Host, *Replica) {
	r := newReplica(opts, nodeOpts.Quorum)
	nodeOpts.App = r
	return core.NewHost(nodeOpts, nil, r.onSuspected), r
}

package follower

import (
	"quorumselect/internal/core"
	"quorumselect/internal/fd"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/suspicion"
	"quorumselect/internal/wire"
)

// Node is one complete Follower Selection process: network → failure
// detector → {suspicion store → follower selector, application}. Like
// core.Node it is a shell over the replica-host kernel with a selection
// module; the Algorithm 2 selector additionally consumes its own
// FOLLOWERS messages through the kernel's MessageHandler hook.
type Node struct {
	*host.Host
	// Selector is the Algorithm 2 selection module, exposed with its
	// concrete type for experiments.
	Selector *Selector
}

var (
	_ runtime.Node        = (*Node)(nil)
	_ runtime.Stopper     = (*Node)(nil)
	_ host.Selection      = (*Selector)(nil)
	_ host.MessageHandler = (*Selector)(nil)
)

// HandleMessage implements host.MessageHandler: the Algorithm 2
// selector consumes FOLLOWERS messages; everything else falls through
// to the application.
func (s *Selector) HandleMessage(_ ids.ProcessID, m wire.Message) bool {
	if msg, ok := m.(*wire.Followers); ok {
		s.HandleFollowers(msg)
		return true
	}
	return false
}

// NewNode creates an unstarted node from the same options as
// core.NewNode; only the selection module differs. As there, the kernel
// floors the failure-detector base timeout at 3× the heartbeat period.
//
// A durable node is not supported, so a non-nil opts.Storage panics.
// The kernel would restore the suspicion matrix, but the leader's
// FOLLOWERS choice is not persisted: a follower restarted under a
// leader other than the default one waits for a FOLLOWERS message that
// leader already sent, then suspects it, and the system moves on to
// another leader.
func NewNode(opts core.NodeOptions) *Node {
	if opts.Storage != nil {
		panic("follower: durable Storage is unsupported: a restarted follower cannot recover its leader's FOLLOWERS choice")
	}
	n := &Node{}
	n.Host = host.New(host.Options{
		FD:              opts.FD,
		Store:           opts.Store,
		HeartbeatPeriod: opts.HeartbeatPeriod,
		App:             opts.App,
		NewSelection: func(env runtime.Env, store *suspicion.Store, detector *fd.Detector, issue func(ids.Quorum)) host.Selection {
			n.Selector = NewSelectorSystem(env, store, detector, opts.Quorum, issue)
			return n.Selector
		},
	})
	return n
}

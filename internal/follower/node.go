package follower

import (
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/fd"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/quorum"
	"quorumselect/internal/runtime"
	"quorumselect/internal/suspicion"
	"quorumselect/internal/wire"
)

// NodeOptions configures a composed Follower Selection process.
type NodeOptions struct {
	// FD configures the failure detector.
	FD fd.Options
	// Store configures the suspicion store.
	Store suspicion.Options
	// HeartbeatPeriod enables §II heartbeat traffic when positive.
	HeartbeatPeriod time.Duration
	// App is the optional application module (the same interface as
	// core.Application, so applications run on either selector).
	App core.Application
	// Quorum is the generalized quorum system; nil means the threshold
	// system from the configuration (see core.NodeOptions.Quorum).
	Quorum quorum.System
}

// DefaultNodeOptions mirrors core.DefaultNodeOptions.
func DefaultNodeOptions() NodeOptions {
	return NodeOptions{
		FD:              fd.DefaultOptions(),
		Store:           suspicion.DefaultOptions(),
		HeartbeatPeriod: 25 * time.Millisecond,
	}
}

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

// NewNode creates an unstarted node. As in core.NewNode, the kernel
// floors the failure-detector base timeout at 3× the heartbeat period.
func NewNode(opts NodeOptions) *Node {
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

package core

import (
	"time"

	"quorumselect/internal/fd"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/quorum"
	"quorumselect/internal/runtime"
	"quorumselect/internal/storage"
	"quorumselect/internal/suspicion"
)

// Application is the top module of Figure 1: it receives every
// delivered non-UPDATE message and every ⟨QUORUM⟩ event, and may issue
// expectations and detections through the Detector it is given in
// Attach. It is exactly the replica-host kernel's quorum-consuming
// application contract.
type Application = host.QuorumApp

// NodeOptions configures a composed quorum-selection process.
type NodeOptions struct {
	// FD configures the failure detector.
	FD fd.Options
	// Store configures the suspicion store.
	Store suspicion.Options
	// HeartbeatPeriod enables the §II heartbeat traffic when positive.
	HeartbeatPeriod time.Duration
	// App is the optional application module (e.g. an XPaxos replica).
	App Application
	// Storage, when set, makes the node durable (see host.Options.Storage):
	// the kernel recovers suspicion and application state at Init and
	// persists from then on.
	Storage storage.Backend
	// Quorum is the generalized quorum system the selector runs on; nil
	// means the paper's n−f threshold system from the configuration.
	// Callers must validate non-default specs with quorum.Check before
	// booting a node on them — an intersection-violating spec lets a
	// partitioned log commit on both sides.
	Quorum quorum.System
}

// DefaultNodeOptions returns the standard composition: adaptive failure
// detection, update forwarding, heartbeats every 25ms.
func DefaultNodeOptions() NodeOptions {
	return NodeOptions{
		FD:              fd.DefaultOptions(),
		Store:           suspicion.DefaultOptions(),
		HeartbeatPeriod: 25 * time.Millisecond,
	}
}

// Node is one complete process of the paper's architecture (Fig 1):
// network → failure detector → {suspicion store → selector, application}.
// It is a thin shell over the replica-host kernel (internal/host),
// composed with the Algorithm 1 selector; the embedded kernel provides
// runtime.Node, the Detector/Store/HB modules, Quorums/CurrentQuorum
// accounting, and the Stop lifecycle for both the simulator and the TCP
// transport.
type Node struct {
	*host.Host
	// Selector is the Algorithm 1 selection module, exposed with its
	// concrete type for experiments that inspect Epoch/Leader/Stable.
	Selector *Selector
}

var (
	_ runtime.Node    = (*Node)(nil)
	_ runtime.Stopper = (*Node)(nil)
	_ host.Selection  = (*Selector)(nil)
)

// NewNode creates an unstarted node; the simulator or transport calls
// Init. The kernel floors a failure-detector base timeout below 3× the
// heartbeat period (see host.New).
func NewNode(opts NodeOptions) *Node {
	n := &Node{}
	n.Host = NewHost(opts, func(env runtime.Env, store *suspicion.Store, _ *fd.Detector, issue func(ids.Quorum)) host.Selection {
		n.Selector = NewSelectorSystem(env, store, opts.Quorum, issue)
		return n.Selector
	}, nil)
	return n
}

// NewHost builds the replica-host kernel a composition runs on: the one
// place NodeOptions map onto host.Options. newSelection builds the
// selection module; nil composes network → failure detector →
// application, and the detector's ⟨SUSPECTED⟩ then goes to onSuspect
// (nil masks it). The kernel has no quorum-system option: the selection
// module and the application take opts.Quorum from their constructors.
func NewHost(opts NodeOptions, newSelection host.SelectionFactory, onSuspect fd.OnSuspect) *host.Host {
	return host.New(host.Options{
		FD:              opts.FD,
		Store:           opts.Store,
		HeartbeatPeriod: opts.HeartbeatPeriod,
		App:             opts.App,
		Storage:         opts.Storage,
		NewSelection:    newSelection,
		OnSuspect:       onSuspect,
	})
}

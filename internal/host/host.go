// Package host is the protocol-agnostic replica-host kernel: the one
// place the paper's Figure 1 architecture (network → failure detector →
// {suspicion store → selector, application}) is wired together. Every
// composed process in this repository — the quorum-selection node
// (internal/core), the follower-selection node (internal/follower), and
// the standalone baselines in internal/{xpaxos,pbftlite} — is a thin
// shell over host.New, built through core.NewHost, which maps the one
// set of node options onto Options; the kernel owns the failure-detector bind,
// heartbeat traffic, UPDATE routing, quorum fan-out, and the node
// lifecycle (Stop tears down heartbeaters, expectation timers, and the
// application without leaking goroutines or timers).
//
// Whether Options.NewSelection is set picks one of the two compositions
// in the repository:
//
//   - With a selection factory the kernel runs the full stack:
//     suspicions flow through the eventually-consistent suspicion store
//     into an Algorithm-1/2 selection module (supplied as a factory, so
//     the kernel does not depend on any particular selector), and issued
//     quorums fan out to the application.
//   - Without one it runs network → failure detector → application, the
//     wiring of the enumeration and broadcast baselines: suspicions go
//     straight to the configured OnSuspect hook, and no store or
//     selector exists.
package host

import (
	"time"

	"quorumselect/internal/fd"
	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/quorum"
	"quorumselect/internal/runtime"
	"quorumselect/internal/storage"
	"quorumselect/internal/suspicion"
	"quorumselect/internal/wire"
)

// State is the host lifecycle state.
type State int

const (
	// StateNew is a constructed, un-Init'ed host.
	StateNew State = iota
	// StateRunning is a host between Init and Stop.
	StateRunning
	// StateStopped is a torn-down host: timers canceled, heartbeats
	// silenced, application detached. A stopped host drops traffic.
	StateStopped
)

// String returns the lifecycle state name.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	default:
		return "invalid"
	}
}

// App is the application module of Figure 1: it receives every
// delivered non-UPDATE protocol message and may issue expectations and
// detections through the Detector it is given in Attach.
type App interface {
	// Attach hands the application its environment and failure
	// detector before any event is delivered.
	Attach(env runtime.Env, detector *fd.Detector)
	// Deliver receives an authenticated application message.
	Deliver(from ids.ProcessID, m wire.Message)
}

// QuorumApp is an App that also consumes the selection module's
// ⟨QUORUM, Q⟩ events. Applications composed with a selection module
// normally implement it; the kernel type-asserts at Init.
type QuorumApp interface {
	App
	// OnQuorum receives ⟨QUORUM, Q⟩ from the selection module.
	OnQuorum(q ids.Quorum)
}

// Stoppable is the optional teardown extension of App and Selection: a
// module holding timers (round timeouts, ingress flush timers)
// implements it so Host.Stop can cancel them.
type Stoppable interface {
	Stop()
}

// Selection is a quorum-selection state machine (Algorithm 1 or 2)
// composed behind the suspicion store.
type Selection interface {
	// OnSuspected receives the failure detector's ⟨SUSPECTED, S⟩.
	OnSuspected(suspected ids.ProcSet)
	// UpdateQuorum re-evaluates the quorum; wired to the store's
	// onChange hook.
	UpdateQuorum()
	// Current returns the last issued (or initial) quorum.
	Current() ids.Quorum
}

// MessageHandler is an optional Selection extension for modules that
// consume their own protocol messages (Algorithm 2's FOLLOWERS). A
// handled message does not reach the application.
type MessageHandler interface {
	HandleMessage(from ids.ProcessID, m wire.Message) bool
}

// SelectionFactory builds the selection module at Init. issue must be
// called for every ⟨QUORUM, Q⟩ event the module emits; the kernel
// records the quorum and fans it out to the application.
type SelectionFactory func(env runtime.Env, store *suspicion.Store, detector *fd.Detector, issue func(ids.Quorum)) Selection

// Options configures a composed replica host.
type Options struct {
	// FD configures the failure detector.
	FD fd.Options
	// Store configures the suspicion store (with a selection module
	// only).
	Store suspicion.Options
	// HeartbeatPeriod enables the §II heartbeat traffic when positive.
	HeartbeatPeriod time.Duration
	// App is the optional application module.
	App App
	// NewSelection builds the selection module; nil composes the failure
	// detector alone.
	NewSelection SelectionFactory
	// OnSuspect receives the detector's ⟨SUSPECTED, S⟩ when there is no
	// selection module (may be nil when suspicions are masked, as in
	// classic PBFT). With one, suspicions route to it and this field is
	// ignored.
	OnSuspect fd.OnSuspect
	// Storage, when set, makes the host durable: at Init the kernel
	// opens (and recovers) a storage.Store over this backend, restores
	// the suspicion matrix, hands a DurableApp its recovered records,
	// and persists suspicion writes from then on; Stop flushes and
	// closes the WAL. Nil keeps the host fully in-memory.
	Storage storage.Backend
}

// Host is one composed replica process. It implements runtime.Node for
// the simulator and the TCP transport, and runtime.Stopper for
// lifecycle teardown.
type Host struct {
	opts Options

	env       runtime.Env
	state     State
	Detector  *fd.Detector
	Store     *suspicion.Store // nil without a selection module
	Selection Selection        // nil without a selection module
	HB        *fd.Heartbeater  // nil when heartbeats are disabled

	selHandler MessageHandler // Selection's message hook, if any
	quorumApp  QuorumApp      // App's quorum hook, if any
	quorumLog  []ids.Quorum
	storage    *storage.Store // nil when Options.Storage is unset
	rec        []byte         // appendTagged's record buffer, reused
	syncTimer  runtime.Timer  // group commit for suspicion records (storePersister)
}

var (
	_ runtime.Node    = (*Host)(nil)
	_ runtime.Stopper = (*Host)(nil)
)

// New creates an unstarted host; the simulator or transport calls Init.
// A failure-detector base timeout below 3× the heartbeat period is
// raised to it: an expectation that cannot outlive the gap between two
// heartbeats suspects every correct process on schedule.
func New(opts Options) *Host {
	if opts.HeartbeatPeriod > 0 && opts.FD.BaseTimeout < 3*opts.HeartbeatPeriod {
		opts.FD.BaseTimeout = 3 * opts.HeartbeatPeriod
	}
	h := &Host{opts: opts}
	if qa, ok := opts.App.(QuorumApp); ok {
		h.quorumApp = qa
	}
	return h
}

// Init implements runtime.Node: it wires the composition (with or
// without a selection module) and starts the heartbeat traffic.
func (h *Host) Init(env runtime.Env) {
	h.env = env
	h.Detector = fd.New(h.opts.FD)
	if h.opts.NewSelection != nil {
		h.Store = suspicion.New(env.Config(), h.opts.Store)
		h.Selection = h.opts.NewSelection(env, h.Store, h.Detector, h.issueQuorum)
		if mh, ok := h.Selection.(MessageHandler); ok {
			h.selHandler = mh
		}
		h.Store.Bind(env, h.Selection.UpdateQuorum)
		h.Detector.Bind(env, h.deliver, h.Selection.OnSuspected)
	} else {
		h.Detector.Bind(env, h.deliver, h.opts.OnSuspect)
	}
	if h.opts.App != nil {
		h.opts.App.Attach(env, h.Detector)
	}
	if h.opts.Storage != nil {
		h.openStorage(env)
	}
	if h.opts.HeartbeatPeriod > 0 {
		h.HB = fd.NewHeartbeater(h.Detector, h.opts.HeartbeatPeriod)
		h.HB.Start(env)
	}
	h.setState(StateRunning)
}

// Receive implements runtime.Node: all network traffic enters through
// the failure detector (Fig 1). A stopped host drops traffic.
func (h *Host) Receive(from ids.ProcessID, m wire.Message) {
	if h.state != StateRunning {
		return
	}
	h.Detector.Receive(from, m)
}

// Stop implements runtime.Stopper: silence the heartbeater, cancel
// every outstanding failure-detector timer, and detach the application
// and selection modules (canceling their timers if they are
// Stoppable). Stop is idempotent and must run on the node's event
// loop, like every other node entry point.
func (h *Host) Stop() {
	if h.state != StateRunning {
		return
	}
	if h.HB != nil {
		h.HB.Stop()
	}
	h.Detector.Close()
	if s, ok := h.Selection.(Stoppable); ok {
		s.Stop()
	}
	if s, ok := h.opts.App.(Stoppable); ok {
		s.Stop()
	}
	h.closeStorage()
	h.setState(StateStopped)
}

// State returns the host's lifecycle state.
func (h *Host) State() State { return h.state }

// Env returns the environment the host was initialized with (nil
// before Init).
func (h *Host) Env() runtime.Env { return h.env }

// App returns the composed application module (nil when none).
func (h *Host) App() App { return h.opts.App }

// Quorums returns every quorum issued so far, in order (empty without
// a selection module).
func (h *Host) Quorums() []ids.Quorum {
	out := make([]ids.Quorum, len(h.quorumLog))
	copy(out, h.quorumLog)
	return out
}

// CurrentQuorum returns the selection module's current quorum (hosts
// with a selection module only).
func (h *Host) CurrentQuorum() ids.Quorum { return h.Selection.Current() }

// QuorumSystem returns the generalized quorum system the selection
// module runs on, or nil when the kernel has no selection module (or
// one predating the quorum abstraction). Status endpoints use it to
// report the active spec.
func (h *Host) QuorumSystem() quorum.System {
	if h.Selection == nil {
		return nil
	}
	if s, ok := h.Selection.(interface{ System() quorum.System }); ok {
		return s.System()
	}
	return nil
}

// issueQuorum records a ⟨QUORUM, Q⟩ event and fans it out to the
// application.
func (h *Host) issueQuorum(q ids.Quorum) {
	h.quorumLog = append(h.quorumLog, q)
	if h.quorumApp != nil {
		h.quorumApp.OnQuorum(q)
	}
}

// deliver demultiplexes authenticated messages: UPDATEs go to the
// suspicion store, selection-module messages (FOLLOWERS) to the
// selection module, everything else to the application. Heartbeats
// never arrive here — the detector consumes them (see fd.Detector.Bind).
func (h *Host) deliver(from ids.ProcessID, m wire.Message) {
	if msg, ok := m.(*wire.Update); ok {
		if h.Store != nil {
			h.Store.HandleUpdate(msg)
		}
		return
	}
	if h.selHandler != nil && h.selHandler.HandleMessage(from, m) {
		return
	}
	if h.opts.App != nil {
		h.opts.App.Deliver(from, m)
	}
}

// setState transitions the lifecycle state, emitting the obs event and
// counter that make shutdowns visible in /metrics and /events.
func (h *Host) setState(s State) {
	h.state = s
	runtime.Emit(h.env, obs.Event{Type: obs.TypeLifecycle, Detail: s.String()})
	h.env.Metrics().Inc("host.lifecycle."+s.String(), 1)
}

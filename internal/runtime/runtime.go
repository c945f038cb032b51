// Package runtime defines the execution environment protocol code runs
// against. The same protocol implementations (failure detector,
// suspicion store, selectors, XPaxos) run unchanged on the
// deterministic discrete-event simulator (internal/sim) and on the real
// TCP transport (internal/transport); both provide an Env.
//
// Per the paper's system model, events between the modules of one
// process are processed in the order they were produced: every process
// is driven by a single logical thread, so protocol code never needs
// locks.
package runtime

import (
	"errors"
	"math/rand"
	"time"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/wire"
)

// Timer is a cancelable pending callback.
type Timer interface {
	// Stop cancels the timer; it reports whether the callback was
	// prevented from running (false if it already ran or was stopped).
	Stop() bool
}

// Env is the execution environment of one process: identity, transport,
// virtual or real time, deterministic randomness, signing, metrics,
// and the observability stream of protocol events and spans.
type Env interface {
	// ID returns the identity of this process in Π.
	ID() ids.ProcessID
	// Config returns the system parameters (n, f, q).
	Config() ids.Config
	// Send transmits m to process to. Sending to the local process is
	// allowed and delivers through the normal receive path, preserving
	// the paper's "broadcast to all including self" (Algorithm 1).
	Send(to ids.ProcessID, m wire.Message)
	// Now returns the current time (virtual in simulations).
	Now() time.Duration
	// After schedules fn to run on this process's event loop after d.
	After(d time.Duration, fn func()) Timer
	// Rand returns this process's deterministic randomness source.
	Rand() *rand.Rand
	// Auth returns the authenticator used to sign and verify messages.
	Auth() crypto.Authenticator
	// Metrics returns the shared experiment registry.
	Metrics() *metrics.Registry
	// Events returns the observability stream (never nil; shared across
	// processes in simulations, per-host on TCP). It records protocol
	// events always and causal spans while its spans are enabled; with
	// spans off the Trace helpers are inert, so protocol code calls
	// them unconditionally.
	Events() *obs.Bus
}

// Node is a protocol instance: the simulator or transport calls Init
// once, then Receive for every arriving message, all on one logical
// thread.
type Node interface {
	// Init is called once before any message is delivered.
	Init(env Env)
	// Receive handles a message from the (link-authenticated) sender.
	// Its content signature, if it has one, has already been checked
	// (Authenticate).
	Receive(from ids.ProcessID, m wire.Message)
}

// Stopper is the optional lifecycle extension of Node: a node that
// implements it can be torn down — periodic senders stopped,
// outstanding timers canceled, the application detached — so the
// simulator or transport can shut a process down (or restart it)
// without leaking goroutines or timers. Stop must be called on the
// node's event loop (like Init and Receive) and must be idempotent.
type Stopper interface {
	Stop()
}

// StopNode tears n down if it implements Stopper; it reports whether it
// did.
func StopNode(n Node) bool {
	s, ok := n.(Stopper)
	if ok {
		s.Stop()
	}
	return ok
}

// Broadcast sends m to every process in Π, including the sender itself
// when includeSelf is set (Algorithm 1 broadcasts updates "to all
// including self").
func Broadcast(env Env, m wire.Message, includeSelf bool) {
	n := env.Config().N
	for p := ids.ProcessID(1); int(p) <= n; p++ {
		if p == env.ID() && !includeSelf {
			continue
		}
		env.Send(p, m)
	}
}

// Sign attaches env's signature to a signed message, panicking on
// signing failure (a process that cannot sign with its own key is
// misconfigured beyond recovery).
func Sign(env Env, m wire.Signed) {
	covered, sig := wire.Signing(m)
	var err error
	if *sig, err = env.Auth().Sign(env.ID(), covered); err != nil {
		panic("runtime: cannot sign with own key: " + err.Error())
	}
}

// Verify checks a signed message against its claimed signer. Arriving
// frames are checked by Authenticate; Verify is for signed messages a
// frame embeds (a COMMIT's PREPARE), re-encoding what m says now.
func Verify(env Env, m wire.Signed) error {
	covered, sig := wire.Signing(m)
	return env.Auth().Verify(m.Signer(), covered, *sig)
}

// ErrForged is Authenticate's verdict on a frame whose content
// signature does not verify.
var ErrForged = errors.New("runtime: content signature does not verify")

// Authenticate is the signature check of the paper's ⟨RECEIVE⟩, made
// where a frame lands: it decodes the frame and checks the content
// signature of the message it carries against the signed bytes as they
// arrived (wire.Open), so nothing is re-encoded. A
// ShardEnvelope's inner message is checked under its shard's signing
// domain (crypto.VerifyShard), the check that shard's DomainAuth makes.
//
// It returns the decoded message and whether a signature was checked.
// A frame that does not decode fails with the decode error. A frame
// whose signature does not verify fails with ErrForged and must be
// dropped: it cannot be attributed (the link sender may be an innocent
// forwarder), so it produces neither delivery nor detection.
//
// Both backends call it on every frame that crosses a link — the TCP
// transport on the connection's reader goroutine, the simulator at the
// delivery instant — so protocol code only ever receives authenticated
// messages.
func Authenticate(auth crypto.Authenticator, frame []byte) (m wire.Message, checked bool, err error) {
	m, signed, sig, err := wire.Open(frame)
	if err != nil || signed == nil {
		return m, false, err
	}
	if env, ok := m.(*wire.ShardEnvelope); ok {
		err = crypto.VerifyShard(auth, env.Shard, env.Inner.(wire.Signed).Signer(), signed, sig)
	} else {
		err = auth.Verify(m.(wire.Signed).Signer(), signed, sig)
	}
	if err != nil {
		return m, true, ErrForged
	}
	return m, true, nil
}

// Emit publishes a protocol event stamped with env's identity and
// clock.
func Emit(env Env, e obs.Event) {
	e.Node = env.ID()
	e.At = env.Now()
	env.Events().Publish(e)
}

// TraceStart opens a causal span on env's stream, stamped with env's
// clock. A zero parent starts a new trace; a context taken off an
// incoming frame joins the sender's trace. With spans off the returned
// Active is inert.
func TraceStart(env Env, name string, parent wire.TraceContext) obs.Active {
	return env.Events().Start(env.ID(), name, parent, env.Now())
}

// TraceEnd records a span opened with TraceStart at env's current
// clock.
func TraceEnd(env Env, a obs.Active) { a.End(env.Now()) }

// TraceInstant records a zero-duration span (a point event such as a
// message arrival) parented on the given context.
func TraceInstant(env Env, name string, parent wire.TraceContext) {
	now := env.Now()
	env.Events().Start(env.ID(), name, parent, now).End(now)
}

// NodeGauge resolves the named gauge labeled with env's process
// identity, so per-process gauges from different processes sharing one
// registry (the simulator) stay distinguishable. Modules resolve it once
// at Init/Bind and Set the handle on the message path.
func NodeGauge(env Env, name string) *metrics.GaugeHandle {
	return env.Metrics().GaugeHandle(name, metrics.L{Key: "node", Value: env.ID().String()})
}

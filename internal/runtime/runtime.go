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
	"math/rand"
	"time"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/obs/tracer"
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
// protocol events and spans.
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
	// Events returns the protocol event bus (never nil; shared across
	// processes in simulations, per-host on TCP).
	Events() *obs.Bus
	// Tracer returns the causal span recorder, or nil when tracing is
	// disabled — a nil *tracer.Tracer is inert, so protocol code calls
	// the Trace helpers unconditionally.
	Tracer() *tracer.Tracer
}

// Node is a protocol instance: the simulator or transport calls Init
// once, then Receive for every arriving message, all on one logical
// thread.
type Node interface {
	// Init is called once before any message is delivered.
	Init(env Env)
	// Receive handles a message from the (link-authenticated) sender.
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
	for _, p := range env.Config().All() {
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
	sig, err := env.Auth().Sign(env.ID(), m.SigBytes())
	if err != nil {
		panic("runtime: cannot sign with own key: " + err.Error())
	}
	m.SetSignature(sig)
}

// Verify checks a signed message against its claimed signer.
func Verify(env Env, m wire.Signed) error {
	return env.Auth().Verify(m.Signer(), m.SigBytes(), m.Signature())
}

// AsyncVerifier is the optional off-loop verification extension of Env.
// An environment that implements it may verify signatures away from the
// event loop and deliver the result back ONTO the loop: done(err) must
// run as a loop event (a virtual-time event in the simulator, an events
// queue closure on the TCP host), never concurrently with protocol
// code.
type AsyncVerifier interface {
	// VerifiesAsync reports whether the off-loop path is enabled, i.e.
	// whether VerifyAsync would take the message. It costs nothing;
	// VerifyAsync below asks it first, so an implementation's
	// VerifyAsync may build SigBytes without testing again.
	VerifiesAsync() bool
	// VerifyAsync starts verification of m and reports whether it was
	// accepted: false means asynchronous verification is disabled (or
	// shut down) and done was NOT called — the caller verifies
	// synchronously instead.
	VerifyAsync(m wire.Signed, done func(error)) bool
}

// VerifiesAsync reports whether VerifyAsync(env, …) would go off the
// loop: when false, Verify(env, m) gives the verdict here and now.
func VerifiesAsync(env Env) bool {
	av, ok := env.(AsyncVerifier)
	return ok && av.VerifiesAsync()
}

// VerifyAsync verifies m through env's AsyncVerifier when it has one,
// falling back to an inline synchronous Verify otherwise. It reports
// whether verification went asynchronous: if false, done already ran
// before VerifyAsync returned.
func VerifyAsync(env Env, m wire.Signed, done func(error)) bool {
	if av, ok := env.(AsyncVerifier); ok && av.VerifiesAsync() && av.VerifyAsync(m, done) {
		return true
	}
	done(Verify(env, m))
	return false
}

// RawAsyncVerifier is the raw-bytes form of AsyncVerifier: the
// environment verifies an explicit (signer, data, sig) triple off the
// loop, with the same delivery contract (done(err) runs as a loop
// event). Wrapping environments that rewrite the signed bytes before
// verification — the fleet's per-shard domain separation — need it:
// they cannot hand the wrapped bytes to VerifyAsync, whose input is
// the message itself.
type RawAsyncVerifier interface {
	// VerifiesAsync is AsyncVerifier's probe: false means VerifyRawAsync
	// would refuse, so the caller need not build the bytes.
	VerifiesAsync() bool
	// VerifyRawAsync starts verification and reports whether it was
	// accepted; false means done was NOT called and the caller must
	// verify synchronously.
	VerifyRawAsync(signer ids.ProcessID, data, sig []byte, done func(error)) bool
}

// BatchVerifier is the optional batched-verification extension of Env:
// all items of one pass are checked together (deduplicated and fanned
// out across CPUs on the TCP host), blocking until the whole batch is
// decided. Unlike AsyncVerifier this stays on the calling thread, so
// protocol code may use the results immediately.
type BatchVerifier interface {
	// VerifyBatch returns one error per item, aligned with items, or
	// nil when batched verification is disabled.
	VerifyBatch(items []crypto.BatchItem) []error
}

// VerifyBatch checks a batch of signatures through env's BatchVerifier
// when it has one, serially otherwise. The result is always aligned
// with items.
func VerifyBatch(env Env, items []crypto.BatchItem) []error {
	if bv, ok := env.(BatchVerifier); ok {
		if errs := bv.VerifyBatch(items); errs != nil {
			return errs
		}
	}
	return crypto.VerifySerial(env.Auth(), items)
}

// BatchItemOf builds the batch-verification item for a signed message.
func BatchItemOf(m wire.Signed) crypto.BatchItem {
	return crypto.BatchItem{Signer: m.Signer(), Data: m.SigBytes(), Sig: m.Signature()}
}

// Emit publishes a protocol event stamped with env's identity and
// clock.
func Emit(env Env, e obs.Event) {
	e.Node = env.ID()
	e.At = env.Now()
	env.Events().Publish(e)
}

// TraceStart opens a causal span on env's tracer, stamped with env's
// clock. A zero parent starts a new trace; a context taken off an
// incoming frame joins the sender's trace. With tracing disabled the
// returned Active is inert.
func TraceStart(env Env, name string, parent wire.TraceContext) tracer.Active {
	return env.Tracer().Start(env.ID(), name, parent, env.Now())
}

// TraceEnd records a span opened with TraceStart at env's current
// clock.
func TraceEnd(env Env, a tracer.Active) { a.End(env.Now()) }

// TraceInstant records a zero-duration span (a point event such as a
// message arrival) parented on the given context.
func TraceInstant(env Env, name string, parent wire.TraceContext) {
	env.Tracer().Instant(env.ID(), name, parent, env.Now())
}

// NodeGauge resolves the named gauge labeled with env's process
// identity, so per-process gauges from different processes sharing one
// registry (the simulator) stay distinguishable. Modules resolve it once
// at Init/Bind and Set the handle on the message path.
func NodeGauge(env Env, name string) *metrics.GaugeHandle {
	return env.Metrics().GaugeHandle(name, metrics.L{Key: "node", Value: env.ID().String()})
}

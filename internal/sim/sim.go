// Package sim is a deterministic discrete-event simulator for the
// protocols in this repository. It models the paper's system: processes
// connected by reliable, asynchronous, per-link-FIFO channels, with an
// adversary hook controlling drops and delays on links from faulty
// processes.
//
// Determinism: all randomness flows from one seed; events at equal
// virtual times fire in scheduling order. Two runs with the same seed
// and the same node implementations produce identical traces.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/obs/tracer"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// DefaultLatency is the base one-way link latency when no latency model
// is configured.
const DefaultLatency = 10 * time.Millisecond

// LatencyModel computes the one-way latency for a message on a link.
// It must be deterministic given the rng state.
type LatencyModel func(from, to ids.ProcessID, rng *rand.Rand) time.Duration

// ConstantLatency returns a model with a fixed latency on all links.
func ConstantLatency(d time.Duration) LatencyModel {
	return func(ids.ProcessID, ids.ProcessID, *rand.Rand) time.Duration { return d }
}

// UniformLatency returns a model drawing latencies uniformly from
// [min, max] on every link.
func UniformLatency(min, max time.Duration) LatencyModel {
	if max < min {
		min, max = max, min
	}
	return func(_, _ ids.ProcessID, rng *rand.Rand) time.Duration {
		if max == min {
			return min
		}
		return min + time.Duration(rng.Int63n(int64(max-min)+1))
	}
}

// Verdict is the adversary's decision about one message on one link.
type Verdict struct {
	// Drop suppresses delivery entirely (an omission on this link).
	Drop bool
	// Delay adds to the link latency (a timing failure on this link).
	Delay time.Duration
	// Duplicate delivers a second, independently delayed copy of the
	// message — a faulty link replaying a frame.
	Duplicate bool
	// Mutate, when non-nil, transforms the encoded frame before
	// delivery — a Byzantine sender (or corrupting link) emitting
	// garbage instead of the protocol message. A mutated frame that no
	// longer decodes is discarded like any other line garbage and
	// counted in msg.mutated.undecodable; a frame that decodes but
	// fails signature verification is dropped at delivery and counted
	// in fd.dropped.badsig. The function must be deterministic for
	// reproducible runs and must not retain the slice it is given.
	Mutate func(frame []byte) []byte
}

// Filter is the adversary's network hook, consulted for every message.
// The zero Verdict means normal delivery.
type Filter interface {
	Filter(from, to ids.ProcessID, m wire.Message, now time.Duration) Verdict
}

// FilterFunc adapts a function to the Filter interface.
type FilterFunc func(from, to ids.ProcessID, m wire.Message, now time.Duration) Verdict

// Filter implements Filter.
func (f FilterFunc) Filter(from, to ids.ProcessID, m wire.Message, now time.Duration) Verdict {
	return f(from, to, m, now)
}

// ChainFilters composes two filters; either may be nil. A drop from
// the first short-circuits; otherwise delays add, duplication unions,
// and the first non-nil mutation wins. Harnesses use it to stack a
// topology's partition windows in front of a generated fault schedule.
func ChainFilters(a, b Filter) Filter {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return FilterFunc(func(from, to ids.ProcessID, m wire.Message, at time.Duration) Verdict {
		v := a.Filter(from, to, m, at)
		if v.Drop {
			return v
		}
		w := b.Filter(from, to, m, at)
		w.Delay += v.Delay
		w.Duplicate = w.Duplicate || v.Duplicate
		if w.Mutate == nil {
			w.Mutate = v.Mutate
		}
		return w
	})
}

// Options configures a Network.
type Options struct {
	// Seed drives all randomness in the run. The zero seed is valid
	// and distinct from seed 1.
	Seed int64
	// Latency is the link latency model; nil means DefaultLatency.
	Latency LatencyModel
	// Filter is the adversary hook; nil means no interference.
	Filter Filter
	// Auth is the authenticator handed to every process; nil means
	// crypto.NopRing (protocol-level adversary modeling).
	Auth crypto.Authenticator
	// Metrics receives message accounting; nil allocates a fresh
	// registry.
	Metrics *metrics.Registry
	// Events receives typed protocol events from every simulated
	// process (the Event.Node field distinguishes them); nil allocates
	// a fresh bus with obs.DefaultCapacity.
	Events *obs.Bus
	// Tracer receives causal spans from every simulated process,
	// stamped with the shared virtual clock (the Span.Node field
	// distinguishes them); nil disables tracing.
	Tracer *tracer.Tracer
	// AllowReorder disables the per-link FIFO clamp: messages on one
	// link arrive in latency order rather than send order. The default
	// (false) preserves the paper's reliable-FIFO channel model; chaos
	// scenarios opt in to explore schedules the model excludes.
	AllowReorder bool
}

// Network is the simulated system: the event queue, the clock, and one
// Env per process.
type Network struct {
	cfg     ids.Config
	opts    Options
	now     time.Duration
	seq     uint64
	queue   eventQueue
	envs    map[ids.ProcessID]*procEnv
	nodes   map[ids.ProcessID]runtime.Node
	lastArr []time.Duration // per-link FIFO clamp, see arrival
	rng     *rand.Rand
	metrics *metrics.Registry
	m       netMetrics
	events  *obs.Bus
	steps   uint64
	// free recycles fired message-delivery events. Only delivery
	// events are pooled: timer events double as runtime.Timer handles
	// that protocol code may hold (and Stop) long after they fire, so
	// reusing those would let a stale handle cancel an unrelated event.
	free []*event
}

// netMetrics holds the message-accounting series, resolved once per
// network: every transmission and delivery touches several of them.
type netMetrics struct {
	sentKind [wire.NumTypes]*metrics.CounterHandle // msg.sent.<TYPE>

	sent, sentRemote, delivered, dropped, duplicated, mutated, undecodable, badsig *metrics.CounterHandle
}

func newNetMetrics(reg *metrics.Registry) netMetrics {
	m := netMetrics{
		sent:        reg.CounterHandle("msg.sent.total"),
		sentRemote:  reg.CounterHandle("msg.sent.remote"),
		delivered:   reg.CounterHandle("msg.delivered.total"),
		dropped:     reg.CounterHandle("msg.dropped.total"),
		duplicated:  reg.CounterHandle("msg.duplicated.total"),
		mutated:     reg.CounterHandle("msg.mutated.total"),
		undecodable: reg.CounterHandle("msg.mutated.undecodable"),
		badsig:      reg.CounterHandle("fd.dropped.badsig"),
	}
	for t := 1; t < wire.NumTypes; t++ {
		m.sentKind[t] = reg.CounterHandle("msg.sent." + wire.Type(t).String())
	}
	return m
}

// NewNetwork builds a simulated network for cfg with the given nodes.
// Every process in Π must have a node implementation.
func NewNetwork(cfg ids.Config, nodes map[ids.ProcessID]runtime.Node, opts Options) *Network {
	if opts.Latency == nil {
		opts.Latency = ConstantLatency(DefaultLatency)
	}
	if opts.Auth == nil {
		opts.Auth = crypto.NopRing{}
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	if opts.Events == nil {
		opts.Events = obs.NewBus(0)
	}
	n := &Network{
		cfg:     cfg,
		opts:    opts,
		envs:    make(map[ids.ProcessID]*procEnv, cfg.N),
		nodes:   make(map[ids.ProcessID]runtime.Node, cfg.N),
		lastArr: make([]time.Duration, cfg.N*cfg.N),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		metrics: opts.Metrics,
		m:       newNetMetrics(opts.Metrics),
		events:  opts.Events,
	}
	for _, p := range cfg.All() {
		node, ok := nodes[p]
		if !ok {
			panic(fmt.Sprintf("sim: no node implementation for %s", p))
		}
		n.nodes[p] = node
		n.envs[p] = &procEnv{
			net: n,
			id:  p,
			rng: rand.New(rand.NewSource(opts.Seed ^ int64(p)*0x5851f42d4c957f2d)),
		}
	}
	for _, p := range cfg.All() {
		n.nodes[p].Init(n.envs[p])
	}
	return n
}

// Config returns the system parameters.
func (n *Network) Config() ids.Config { return n.cfg }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// Metrics returns the run's registry.
func (n *Network) Metrics() *metrics.Registry { return n.metrics }

// Events returns the run's protocol event bus.
func (n *Network) Events() *obs.Bus { return n.events }

// Tracer returns the run's span recorder (nil when tracing is
// disabled).
func (n *Network) Tracer() *tracer.Tracer { return n.opts.Tracer }

// Env returns the environment of process p, letting tests and
// experiments inject events as if they were local modules.
func (n *Network) Env(p ids.ProcessID) runtime.Env { return n.envs[p] }

// SetFilter replaces the adversary hook mid-run (nil removes it),
// enabling dynamic scenarios — partitions that open and heal, faults
// that start late — without pre-baking a schedule into the filter.
// Messages already in flight keep their original verdicts.
func (n *Network) SetFilter(f Filter) { n.opts.Filter = f }

// Steps returns the number of events processed so far.
func (n *Network) Steps() uint64 { return n.steps }

// Pending returns the number of queued events.
func (n *Network) Pending() int { return len(n.queue) }

// Step processes the next event; it reports false if the queue is
// empty.
func (n *Network) Step() bool {
	for len(n.queue) > 0 {
		ev := n.queue.pop()
		if ev.canceled {
			continue
		}
		if ev.at < n.now {
			panic("sim: time went backwards")
		}
		n.now = ev.at
		n.steps++
		ev.fired = true
		if ev.fire != nil {
			ev.fire()
		} else {
			n.deliver(ev.from, ev.to, ev.data)
		}
		if ev.poolable {
			*ev = event{}
			n.free = append(n.free, ev)
		}
		return true
	}
	return false
}

// deliver authenticates a frame the way a TCP connection reader does
// (runtime.Authenticate), recycles its buffer (decoded messages never
// alias it) and hands the message to its destination node; a forgery is
// dropped and counted instead.
func (n *Network) deliver(from, to ids.ProcessID, data []byte) {
	m, _, err := runtime.Authenticate(n.opts.Auth, data)
	wire.Recycle(data)
	if err != nil && err != runtime.ErrForged {
		panic(fmt.Sprintf("sim: message failed decode in flight: %v", err))
	}
	n.m.delivered.Inc()
	if err != nil {
		n.m.badsig.Inc()
		return
	}
	n.nodes[to].Receive(from, m)
}

// Run processes events until the queue is empty or the virtual clock
// passes until. It returns the number of events processed.
func (n *Network) Run(until time.Duration) int {
	processed := 0
	for len(n.queue) > 0 {
		next := n.queue.peek()
		if next.at > until {
			break
		}
		if n.Step() {
			processed++
		}
	}
	// Advance the clock even if nothing was left to do, so repeated
	// Run calls move time forward deterministically.
	if n.now < until {
		n.now = until
	}
	return processed
}

// RunUntil processes events until pred holds (checked after every
// event), the queue drains, or the virtual clock passes maxTime. It
// reports whether pred held.
func (n *Network) RunUntil(pred func() bool, maxTime time.Duration) bool {
	if pred() {
		return true
	}
	for len(n.queue) > 0 && n.now <= maxTime {
		if next := n.queue.peek(); next.at > maxTime {
			break
		}
		n.Step()
		if pred() {
			return true
		}
	}
	return pred()
}

// RunQuiescent processes events until no events remain or maxTime
// passes. Protocols with periodic timers (heartbeats) never quiesce;
// use Run instead.
func (n *Network) RunQuiescent(maxTime time.Duration) int {
	return n.Run(maxTime)
}

// StopProcess tears down one node through the runtime.Stopper lifecycle
// (heartbeats silenced, timers canceled); it reports whether the node
// supported it. The stopped process appears crashed to the others — the
// clean-shutdown flavor of the crash injection tests do by silencing
// heartbeaters directly.
func (n *Network) StopProcess(p ids.ProcessID) bool {
	return runtime.StopNode(n.nodes[p])
}

// RestartProcess re-runs a node's Init against its environment,
// modeling crash-recovery churn. A node composed with durable storage
// (host.Options.Storage) recovers its persisted state inside Init, so
// restarting a replicated-state-machine node is meaningful exactly when
// it is durable; a node without storage restarts from scratch, which
// only stateless-by-design compositions (e.g. the core quorum-selection
// host) tolerate.
func (n *Network) RestartProcess(p ids.ProcessID) {
	node, ok := n.nodes[p]
	if !ok {
		panic(fmt.Sprintf("sim: restart of unknown process %s", p))
	}
	node.Init(n.envs[p])
}

// ReplaceProcess swaps in a freshly constructed node for p and Inits it
// against p's environment. Unlike RestartProcess — which re-runs Init
// on the same object, whose Go heap trivially survives — replacement
// models a real crash-restart: the new node's only link to the past is
// whatever durable storage backend it was constructed with.
func (n *Network) ReplaceProcess(p ids.ProcessID, node runtime.Node) {
	if _, ok := n.nodes[p]; !ok {
		panic(fmt.Sprintf("sim: replace of unknown process %s", p))
	}
	n.nodes[p] = node
	node.Init(n.envs[p])
}

// At schedules fn on the network's own clock (clamped to now),
// letting scenario drivers inject faults — partitions opening,
// processes crashing — at absolute virtual times instead of threading
// them through a process's Env. The returned Timer cancels it.
func (n *Network) At(at time.Duration, fn func()) runtime.Timer {
	if at < n.now {
		at = n.now
	}
	return n.schedule(at, fn)
}

// Close stops every node (see StopProcess) and discards the remaining
// event queue. The network must not be stepped afterwards; Close is
// idempotent.
func (n *Network) Close() {
	for _, p := range n.cfg.All() {
		runtime.StopNode(n.nodes[p])
	}
	n.queue = nil
	n.free = nil
}

func (n *Network) schedule(at time.Duration, fn func()) *event {
	ev := &event{at: at, seq: n.seq, fire: fn}
	n.seq++
	n.queue.push(ev)
	return ev
}

// scheduleDelivery queues a message-delivery event, reusing a fired
// event struct when one is free. No handle escapes, so the event is
// poolable.
func (n *Network) scheduleDelivery(at time.Duration, from, to ids.ProcessID, data []byte) {
	var ev *event
	if len(n.free) > 0 {
		ev = n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
	} else {
		ev = &event{}
	}
	*ev = event{at: at, seq: n.seq, from: from, to: to, data: data, poolable: true}
	n.seq++
	n.queue.push(ev)
}

// send models one message transmission with adversary filtering, link
// latency and per-link FIFO.
func (n *Network) send(from, to ids.ProcessID, m wire.Message) {
	n.m.sentKind[m.Kind()].Inc()
	n.m.sent.Inc()
	if from != to {
		n.m.sentRemote.Inc()
	}
	var verdict Verdict
	if n.opts.Filter != nil {
		verdict = n.opts.Filter.Filter(from, to, m, n.now)
	}
	if verdict.Drop {
		n.m.dropped.Inc()
		return
	}
	// Round-trip through the codec: what arrives is what was encoded,
	// never a shared pointer — and undecodable garbage can't be sent.
	// The frame buffer is pooled; deliver recycles it after decoding.
	data := wire.EncodePooled(m)
	if verdict.Mutate != nil {
		// Mutate may edit in place or return a fresh slice; either way
		// only the returned frame is ever recycled, so the pool can
		// never see the same backing array twice.
		mutated := verdict.Mutate(data)
		n.m.mutated.Inc()
		// A mutated frame that no longer decodes would be discarded by
		// any real receiver's framing layer; model that here so deliver
		// keeps its no-garbage-in-flight invariant.
		if _, err := wire.Decode(mutated); err != nil {
			n.m.undecodable.Inc()
			wire.Recycle(mutated)
			return
		}
		data = mutated
	}
	n.scheduleDelivery(n.arrival(from, to, verdict.Delay), from, to, data)
	if verdict.Duplicate {
		n.m.duplicated.Inc()
		dup := append([]byte(nil), data...)
		n.scheduleDelivery(n.arrival(from, to, verdict.Delay), from, to, dup)
	}
}

// arrival computes the delivery time of one transmission on a link:
// latency model plus adversary delay, clamped to per-link FIFO unless
// reordering was opted into. lastArr[(from−1)·n + (to−1)] holds the
// latest arrival scheduled on from→to; its initial zero never exceeds
// an arrival time, so it needs no "seen" flag.
func (n *Network) arrival(from, to ids.ProcessID, delay time.Duration) time.Duration {
	lat := n.opts.Latency(from, to, n.rng) + delay
	if lat < 0 {
		lat = 0
	}
	at := n.now + lat
	if n.opts.AllowReorder {
		return at
	}
	// Reliable FIFO links: arrival times on one link never reorder.
	link := &n.lastArr[(int(from)-1)*n.cfg.N+int(to)-1]
	if at < *link {
		at = *link
	}
	*link = at
	return at
}

// procEnv implements runtime.Env for one simulated process.
type procEnv struct {
	net *Network
	id  ids.ProcessID
	rng *rand.Rand
}

var _ runtime.Env = (*procEnv)(nil)

func (e *procEnv) ID() ids.ProcessID          { return e.id }
func (e *procEnv) Config() ids.Config         { return e.net.cfg }
func (e *procEnv) Now() time.Duration         { return e.net.now }
func (e *procEnv) Rand() *rand.Rand           { return e.rng }
func (e *procEnv) Auth() crypto.Authenticator { return e.net.opts.Auth }
func (e *procEnv) Metrics() *metrics.Registry { return e.net.metrics }
func (e *procEnv) Events() *obs.Bus           { return e.net.events }
func (e *procEnv) Tracer() *tracer.Tracer     { return e.net.opts.Tracer }

func (e *procEnv) Send(to ids.ProcessID, m wire.Message) {
	if !to.Valid(e.net.cfg.N) {
		panic(fmt.Sprintf("sim: %s sending to %s outside Π", e.id, to))
	}
	e.net.send(e.id, to, m)
}

func (e *procEnv) After(d time.Duration, fn func()) runtime.Timer {
	if d < 0 {
		d = 0
	}
	ev := e.net.schedule(e.net.now+d, fn)
	return ev
}

// event is a scheduled occurrence; it doubles as the runtime.Timer
// handle returned by After. Timer events carry a fire callback;
// message-delivery events carry the (from, to, data) payload instead
// and are pooled after firing.
type event struct {
	at       time.Duration
	seq      uint64
	canceled bool
	fired    bool
	poolable bool
	fire     func()
	from, to ids.ProcessID
	data     []byte
}

// Stop implements runtime.Timer. Cancellation is lazy: the event stays
// queued and Step skips it when it surfaces.
func (ev *event) Stop() bool {
	if ev.canceled || ev.fired {
		return false
	}
	ev.canceled = true
	return true
}

// eventQueue is a binary min-heap on (at, seq), sifted in place on
// []*event: every simulated message is one push and one pop, and the
// typed form spares each of them container/heap's interface boxing and
// indirect Less/Swap calls. seq is unique, so the pop order is the
// total order (at, seq) whatever the heap's internal layout.
type eventQueue []*event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest event; the queue must not be
// empty.
func (q *eventQueue) pop() *event {
	h := *q
	last := len(h) - 1
	top := h[0]
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	*q = h
	for i := 0; ; {
		child := 2*i + 1
		if child >= last {
			break
		}
		if right := child + 1; right < last && h.less(right, child) {
			child = right
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top
}

func (q eventQueue) peek() *event { return q[0] }

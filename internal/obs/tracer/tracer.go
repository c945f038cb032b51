// Package tracer is the causal commit-path tracer: a bounded ring of
// spans recording where each client request / slot spent its time as it
// crossed the replica fleet (ingress buffering, leader propose,
// follower accept, WAL fsync, commit quorum, execution).
//
// Causality crosses processes through wire.TraceContext, piggybacked on
// protocol frames outside signature coverage: a span started with a
// remote parent context joins the remote trace, so the recorded spans
// of all nodes assemble into one tree per request batch.
//
// The tracer is clock-agnostic: callers stamp spans with their own
// runtime.Env clock (virtual in simulations, monotonic per host on
// TCP). Under the simulator all processes share one tracer and one
// virtual clock, so cross-node durations compare directly; on TCP each
// host records against its own monotonic origin and only the span
// *structure* (IDs, parents) is comparable across hosts.
//
// Span identifiers are node-prefixed sequence numbers — never wall
// time or global randomness — so a deterministic simulation produces
// byte-identical trace dumps across replays (the chaos flight
// recorder depends on this).
package tracer

import (
	"sync"
	"sync/atomic"
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/wire"
)

// DefaultCapacity bounds the span ring when New is given no capacity:
// enough for the recent history of a busy fleet without unbounded
// growth. The ring holds pointers (span names), so its size is GC scan
// work on every cycle — keep it modest; the ring grows lazily (see
// obs.Ring) so idle or lightly-traced processes never pay for the cap.
const DefaultCapacity = 4096

// nodeShift positions the node identifier above the per-node sequence
// number in span IDs. 40 bits of sequence keep IDs unique for ~10^12
// spans per node while node IDs up to 2^13 keep the full ID inside
// float64-exact integer range (Chrome trace viewers parse JSON
// numbers).
const nodeShift = 40

// Span is one recorded stage of a trace. Start and Dur are durations
// on the *recording node's* clock domain (see the package comment).
// JSON field order and omitempty choices are part of the flight-dump
// format; golden tests pin them.
type Span struct {
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Node   ids.ProcessID `json:"node"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"`
	Dur    time.Duration `json:"dur"`
	Slot   uint64        `json:"slot,omitempty"`
	View   uint64        `json:"view,omitempty"`
}

// Context returns the trace context that parents a child span on this
// span.
func (s Span) Context() wire.TraceContext {
	return wire.TraceContext{Trace: s.Trace, Span: s.ID}
}

// Tracer records completed spans into a bounded ring, keeping the most
// recent ones. All methods are safe for concurrent use (the /trace
// endpoint reads while the event loop records) and safe on a nil
// receiver: a nil *Tracer is the disabled tracer and records nothing.
type Tracer struct {
	disabled atomic.Bool

	mu   sync.Mutex
	ring obs.Ring[Span]
	seq  map[ids.ProcessID]uint64
}

// New creates a tracer retaining the last capacity spans
// (DefaultCapacity if capacity <= 0). The ring's backing storage is
// not allocated up front: it doubles as needed up to the bound, so a
// tracer that records little costs little — in memory and, since the
// ring is live GC-scanned state, in collector time.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		ring: obs.NewRing[Span](capacity),
		seq:  make(map[ids.ProcessID]uint64),
	}
}

// SetEnabled turns span recording on or off at runtime (a tracer
// starts enabled). While disabled the tracer behaves like the nil
// tracer — Start returns an inert Active — at the cost of one atomic
// load per Start, so tracing can be toggled on a live node without
// re-plumbing anything. Spans already open when recording is disabled
// still record on End. Safe on a nil receiver.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.disabled.Store(!on)
	}
}

// Enabled reports whether Start currently records spans.
func (t *Tracer) Enabled() bool { return t != nil && !t.disabled.Load() }

// Active is an open span: started, not yet recorded. The zero Active
// (from a nil or disabled tracer) is inert — Context returns the
// untraced zero context and End records nothing — so protocol code
// traces unconditionally.
type Active struct {
	t *Tracer
	s Span
}

// Start opens a span on node at time at. A zero parent context starts
// a new trace rooted at this span; otherwise the span joins the
// parent's trace. Nothing is recorded until End.
func (t *Tracer) Start(node ids.ProcessID, name string, parent wire.TraceContext, at time.Duration) Active {
	if t == nil || t.disabled.Load() {
		return Active{}
	}
	t.mu.Lock()
	t.seq[node]++
	id := uint64(node)<<nodeShift | (t.seq[node] & (1<<nodeShift - 1))
	t.mu.Unlock()
	s := Span{ID: id, Node: node, Name: name, Start: at}
	if parent.Zero() {
		s.Trace = id
	} else {
		s.Trace = parent.Trace
		s.Parent = parent.Span
	}
	return Active{t: t, s: s}
}

// Instant records a zero-duration span immediately (e.g. a message
// arrival), returning it.
func (t *Tracer) Instant(node ids.ProcessID, name string, parent wire.TraceContext, at time.Duration) Span {
	a := t.Start(node, name, parent, at)
	a.End(at)
	return a.s
}

// Traced reports whether the span will be recorded.
func (a Active) Traced() bool { return a.t != nil }

// Context returns the context a child span or outgoing frame should
// carry. Valid before End — the span's identity is fixed at Start.
func (a Active) Context() wire.TraceContext {
	if a.t == nil {
		return wire.TraceContext{}
	}
	return a.s.Context()
}

// SetSlot tags the span with a consensus slot.
func (a *Active) SetSlot(slot uint64) { a.s.Slot = slot }

// SetView tags the span with a view number.
func (a *Active) SetView(view uint64) { a.s.View = view }

// End records the span with the duration from Start to at (clamped to
// zero if the clock moved backwards across a restart).
func (a Active) End(at time.Duration) {
	if a.t == nil {
		return
	}
	if at > a.s.Start {
		a.s.Dur = at - a.s.Start
	}
	a.t.record(a.s)
}

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring.Push(s)
}

// Spans returns the retained spans in recording order (oldest first).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out, _ := t.ring.Since(0)
	if out == nil {
		out = []Span{} // an empty dump's spans serialize as [], not null
	}
	return out
}

// Of returns the retained spans of one trace, in recording order.
func (t *Tracer) Of(trace uint64) []Span {
	all := t.Spans()
	out := all[:0]
	for _, s := range all {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// Total returns how many spans were ever recorded.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Total()
}

// Dropped returns how many spans the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Dropped()
}

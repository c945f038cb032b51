// Package obs is the observability stream: one bounded, concurrency-
// safe ring of typed records. A record is either a protocol event —
// the paper's module interface (SUSPECTED, naming the ⟨EXPECT⟩ that
// fired / DETECTED / CANCEL), quorum changes, view changes,
// checkpoints, epoch advances — or a causal span of the commit path.
//
// It is the one record of what a process did (the repository has no
// logger): records have stable fields, so frontends serve them over
// HTTP (`GET /events?since=`, `GET /trace`), CLIs render them as
// timelines, and experiments assert on protocol phases without parsing
// text. Every record gets its sequence number from the one ring, so
// events and spans interleave in one order; the ring bounds memory,
// and overwritten records are counted in Dropped().
//
// A span records where a request batch spent its time (ingress
// buffering, leader propose, follower accept, WAL fsync, commit quorum,
// execution); it is published when it ends. Causality crosses
// processes through wire.TraceContext on protocol frames, so the spans
// of all nodes assemble into one tree per batch. Spans carry the
// caller's runtime.Env clock (one virtual clock in simulations, a
// monotonic one per host on TCP, where only the tree structure compares
// across hosts), and span IDs are node-prefixed sequence numbers, never
// wall time or randomness, so a deterministic simulation replays to
// byte-identical dumps.
package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/wire"
)

// Type classifies a record.
type Type uint8

// Record types: the paper's interface events, the phase transitions
// the observability layer times, and spans.
const (
	// Value 1 is unused: an ⟨EXPECT, P, i⟩ gets no record. The other
	// types keep their values.
	_ Type = iota + 1
	// TypeSuspected is a new suspicion: ⟨SUSPECTED, S⟩ grew.
	TypeSuspected
	// TypeSuspicionCleared is a suspicion canceled by a late matching
	// message (eventual strong accuracy in action).
	TypeSuspicionCleared
	// TypeDetected is the application's ⟨DETECTED, i⟩: permanent.
	TypeDetected
	// TypeCancel is ⟨CANCEL⟩ / per-scope expectation cancellation.
	TypeCancel
	// TypeQuorumChange is the selector's ⟨QUORUM, Q⟩.
	TypeQuorumChange
	// TypeViewChangeStart marks a replica entering a view change.
	TypeViewChangeStart
	// TypeViewChangeEnd marks the new view installed.
	TypeViewChangeEnd
	// TypeCheckpoint marks a stable checkpoint taken.
	TypeCheckpoint
	// TypeEpochAdvance marks a suspicion-store epoch advance.
	TypeEpochAdvance
	// TypeLifecycle marks a replica-host lifecycle transition (running,
	// stopped); Detail carries the new state.
	TypeLifecycle
	// TypeLoadPhase marks a workload-generator phase transition (warmup,
	// steady, fault, drain); Detail carries the phase name. Emitted by
	// harnesses driving open-loop load so protocol events in a trace can
	// be read against what the workload was doing at the time.
	TypeLoadPhase
	// TypeSpan is a completed commit-path span: Detail carries its
	// name, At its start, and Trace, SpanID, Parent and Dur its place
	// in the trace tree.
	TypeSpan
)

var typeNames = map[Type]string{
	TypeSuspected:        "SUSPECTED",
	TypeSuspicionCleared: "SUSPICION_CLEARED",
	TypeDetected:         "DETECTED",
	TypeCancel:           "CANCEL",
	TypeQuorumChange:     "QUORUM_CHANGE",
	TypeViewChangeStart:  "VIEW_CHANGE_START",
	TypeViewChangeEnd:    "VIEW_CHANGE_END",
	TypeCheckpoint:       "CHECKPOINT",
	TypeEpochAdvance:     "EPOCH_ADVANCE",
	TypeLifecycle:        "LIFECYCLE",
	TypeLoadPhase:        "LOAD_PHASE",
	TypeSpan:             "SPAN",
}

// String returns the stable wire name of the type.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE(%d)", uint8(t))
}

// MarshalJSON encodes the type as its stable name.
func (t Type) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// Event is one record of the stream: a protocol event, or a span when
// Type is TypeSpan. Zero-valued optional fields are omitted from JSON.
type Event struct {
	// Seq is the stream-assigned sequence number, monotonically
	// increasing from 1.
	Seq uint64 `json:"seq"`
	// At is the emitting process's clock (virtual in simulations, time
	// since host start on TCP), in nanoseconds on the wire; a span's
	// start.
	At time.Duration `json:"at"`
	// Node is the emitting process.
	Node ids.ProcessID `json:"node"`
	// Type classifies the record.
	Type Type `json:"type"`
	// Subject is the process the event is about (the expected sender,
	// the suspected/detected process), when there is one.
	Subject ids.ProcessID `json:"subject,omitempty"`
	// View is the XPaxos view, for view-change events and spans.
	View uint64 `json:"view,omitempty"`
	// Epoch is the suspicion-store epoch, for quorum/epoch events.
	Epoch uint64 `json:"epoch,omitempty"`
	// Slot is the log slot, for checkpoint events and spans.
	Slot uint64 `json:"slot,omitempty"`
	// Detail is free-form context (quorum membership, scope tags, ...);
	// a span's name.
	Detail string `json:"detail,omitempty"`
	// Trace, SpanID and Parent place a span in its trace tree, and Dur
	// is its length; all zero on protocol events.
	Trace  uint64        `json:"trace,omitempty"`
	SpanID uint64        `json:"span,omitempty"`
	Parent uint64        `json:"parent,omitempty"`
	Dur    time.Duration `json:"dur,omitempty"`
}

// String renders the record as a timeline row.
func (e Event) String() string {
	s := fmt.Sprintf("%10s %s %-17s", e.At, e.Node, e.Type)
	if e.Subject != 0 {
		s += " subject=" + e.Subject.String()
	}
	if e.View != 0 {
		s += fmt.Sprintf(" view=%d", e.View)
	}
	if e.Epoch != 0 {
		s += fmt.Sprintf(" epoch=%d", e.Epoch)
	}
	if e.Slot != 0 {
		s += fmt.Sprintf(" slot=%d", e.Slot)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// DefaultCapacity is the ring size used when none is given: enough for
// the live deployment's /events window without risking OOM on long
// runs.
const DefaultCapacity = 65536

// Bus is the stream: a bounded ring of records, safe for concurrent
// use. It records protocol events always and spans only while enabled
// (SetEnabled); a new bus has spans off.
type Bus struct {
	spans atomic.Bool

	mu     sync.Mutex
	ring   Ring[Event]              // a record's Seq is its ring sequence number
	spanID map[ids.ProcessID]uint64 // per-node span counters
}

// NewBus returns a stream storing up to capacity records, spans off;
// capacity <= 0 selects DefaultCapacity.
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Bus{ring: NewRing[Event](capacity), spanID: make(map[ids.ProcessID]uint64)}
}

// SetEnabled turns span recording on or off at runtime. While off,
// Start returns an inert Active at the cost of one atomic load, so
// tracing can be toggled on a live node without re-plumbing anything.
// Spans already open when recording is turned off still record on End.
func (b *Bus) SetEnabled(on bool) { b.spans.Store(on) }

// Publish assigns the record's sequence number and stores it, evicting
// the oldest record once the ring is full. It returns the assigned
// sequence number.
func (b *Bus) Publish(e Event) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	e.Seq = b.ring.Total() + 1
	return b.ring.Push(e)
}

// Total returns how many records were ever published (the latest Seq).
func (b *Bus) Total() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Total()
}

// Dropped returns how many records have been evicted from the ring.
func (b *Bus) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Dropped()
}

// Since returns a copy of every retained record with Seq > seq, events
// and spans in one sequence order, plus the count of matching records
// already evicted (non-zero when the caller fell behind the ring).
func (b *Bus) Since(seq uint64) (events []Event, missed uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Since(seq)
}

// Events returns the retained protocol events — every record but the
// spans — in sequence order.
func (b *Bus) Events() []Event {
	all, _ := b.Since(0)
	return eventsOf(all)
}

// OfType returns the retained records of the given type, in order.
func (b *Bus) OfType(t Type) []Event {
	all, _ := b.Since(0)
	out := all[:0]
	for _, e := range all {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// eventsOf is the event view of a read: its records but the spans.
func eventsOf(all []Event) []Event {
	var out []Event
	for _, e := range all {
		if e.Type != TypeSpan {
			out = append(out, e)
		}
	}
	return out
}

// nodeShift positions the node identifier above the per-node sequence
// number in span IDs. 40 bits of sequence keep IDs unique for ~10^12
// spans per node while node IDs up to 2^13 keep the full ID inside
// float64-exact integer range (Chrome trace viewers parse JSON
// numbers).
const nodeShift = 40

// Span is the span view of a TypeSpan record. Start and Dur are
// durations on the *recording node's* clock domain. JSON field order
// and omitempty choices are part of the flight-dump format; golden
// tests pin them.
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

// Spans returns the retained spans in recording order (oldest first).
func (b *Bus) Spans() []Span {
	all, _ := b.Since(0)
	return spansOf(all)
}

// spansOf is the span view of a read.
func spansOf(all []Event) []Span {
	out := []Span{} // an empty dump's spans serialize as [], not null
	for _, e := range all {
		if e.Type == TypeSpan {
			out = append(out, Span{Trace: e.Trace, ID: e.SpanID, Parent: e.Parent, Node: e.Node,
				Name: e.Detail, Start: e.At, Dur: e.Dur, Slot: e.Slot, View: e.View})
		}
	}
	return out
}

// Active is an open span: started, not yet recorded. The zero Active
// (from a stream with spans off) is inert — Context returns the
// untraced zero context and End records nothing — so protocol code
// traces unconditionally.
type Active struct {
	b *Bus
	e Event
}

// Start opens a span on node at time at. A zero parent context starts
// a new trace rooted at this span; otherwise the span joins the
// parent's trace. Nothing is recorded until End, and with spans off
// nothing is locked or allocated.
func (b *Bus) Start(node ids.ProcessID, name string, parent wire.TraceContext, at time.Duration) Active {
	if !b.spans.Load() {
		return Active{}
	}
	b.mu.Lock()
	b.spanID[node]++
	id := uint64(node)<<nodeShift | (b.spanID[node] & (1<<nodeShift - 1))
	b.mu.Unlock()
	e := Event{Type: TypeSpan, At: at, Node: node, Detail: name, Trace: id, SpanID: id}
	if !parent.Zero() {
		e.Trace, e.Parent = parent.Trace, parent.Span
	}
	return Active{b: b, e: e}
}

// Traced reports whether the span will be recorded.
func (a Active) Traced() bool { return a.b != nil }

// Context returns the context a child span or outgoing frame should
// carry. Valid before End — the span's identity is fixed at Start.
func (a Active) Context() wire.TraceContext {
	return wire.TraceContext{Trace: a.e.Trace, Span: a.e.SpanID}
}

// SetSlot tags the span with a consensus slot.
func (a *Active) SetSlot(slot uint64) { a.e.Slot = slot }

// SetView tags the span with a view number.
func (a *Active) SetView(view uint64) { a.e.View = view }

// End records the span with the duration from Start to at (clamped to
// zero if the clock moved backwards across a restart).
func (a Active) End(at time.Duration) {
	if a.b == nil {
		return
	}
	if at > a.e.At {
		a.e.Dur = at - a.e.At
	}
	a.b.Publish(a.e)
}

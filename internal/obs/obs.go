// Package obs is the typed protocol event bus: a bounded, concurrency-
// safe ring of structured events covering the paper's module interface
// (EXPECT / SUSPECTED / DETECTED / CANCEL), quorum changes, view
// changes, checkpoints and epoch advances.
//
// It is the one record of protocol facts (the repository has no
// logger): events are typed records with stable fields, so frontends
// can serve them over HTTP (`GET /events?since=`), CLIs render them as
// timelines, and experiments can assert on protocol phases without
// parsing text. Every event gets a monotonically
// increasing sequence number; the ring bounds memory, and overwritten
// events are accounted in Dropped().
package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"quorumselect/internal/ids"
)

// Type classifies a protocol event.
type Type uint8

// Event types, mapping the paper's interface events plus the phase
// transitions the observability layer times.
const (
	// TypeExpect is the failure detector's ⟨EXPECT, P, i⟩.
	TypeExpect Type = iota + 1
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
)

var typeNames = map[Type]string{
	TypeExpect:           "EXPECT",
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

// Event is one structured protocol event. Zero-valued optional fields
// are omitted from JSON.
type Event struct {
	// Seq is the bus-assigned sequence number, monotonically increasing
	// from 1.
	Seq uint64 `json:"seq"`
	// At is the emitting process's clock (virtual in simulations, time
	// since host start on TCP), in nanoseconds on the wire.
	At time.Duration `json:"at"`
	// Node is the emitting process.
	Node ids.ProcessID `json:"node"`
	// Type classifies the event.
	Type Type `json:"type"`
	// Subject is the process the event is about (the expected sender,
	// the suspected/detected process), when there is one.
	Subject ids.ProcessID `json:"subject,omitempty"`
	// View is the XPaxos view, for view-change events.
	View uint64 `json:"view,omitempty"`
	// Epoch is the suspicion-store epoch, for quorum/epoch events.
	Epoch uint64 `json:"epoch,omitempty"`
	// Slot is the log slot, for checkpoint events.
	Slot uint64 `json:"slot,omitempty"`
	// Detail is free-form context (quorum membership, scope tags, ...).
	Detail string `json:"detail,omitempty"`
}

// String renders the event as a timeline row.
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

// Bus is a bounded ring of events, safe for concurrent use.
type Bus struct {
	mu   sync.Mutex
	ring Ring[Event] // an event's Seq is its ring sequence number
}

// NewBus returns a bus storing up to capacity events; capacity <= 0
// selects DefaultCapacity.
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Bus{ring: NewRing[Event](capacity)}
}

// Publish assigns the event's sequence number and stores it, evicting
// the oldest event once the ring is full. It returns the assigned
// sequence number.
func (b *Bus) Publish(e Event) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	e.Seq = b.ring.Total() + 1
	return b.ring.Push(e)
}

// Total returns how many events were ever published (the latest Seq).
func (b *Bus) Total() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Total()
}

// Len returns how many events are currently retained.
func (b *Bus) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Len()
}

// Dropped returns how many events have been evicted from the ring.
func (b *Bus) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Dropped()
}

// Since returns a copy of every retained event with Seq > seq, in
// sequence order, plus the count of matching events already evicted
// (non-zero when the caller fell behind the ring).
func (b *Bus) Since(seq uint64) (events []Event, missed uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring.Since(seq)
}

// Events returns every retained event in sequence order.
func (b *Bus) Events() []Event {
	ev, _ := b.Since(0)
	return ev
}

// OfType returns the retained events of the given type, in order.
func (b *Bus) OfType(t Type) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

package logging

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"quorumselect/internal/obs"
)

// Clock supplies the timestamp for each event — in simulations, the
// network's virtual clock (sim.Network.Now satisfies it via a closure).
type Clock func() time.Duration

// Event is one captured log line.
type Event struct {
	At      time.Duration
	Level   Level
	Message string
}

// String renders the event as a timeline row.
func (e Event) String() string {
	return fmt.Sprintf("%10s %-5s %s", e.At, e.Level, e.Message)
}

// DefaultCapacity is the ring size used by NewRecorder: ample for test
// assertions and CLI timelines while bounding memory on long or chatty
// runs (each captured line is retained, so unbounded growth was easy to
// hit with Debug-level capture).
const DefaultCapacity = 65536

// Recorder is the capturing Logger: every module's log lines become
// timestamped, queryable events without touching protocol code, and
// under the simulator's deterministic clock a capture is reproducible
// byte-for-byte across runs with the same seed.
//
//	rec := logging.NewRecorder(clock, logging.LevelDebug)
//	net := sim.NewNetwork(cfg, nodes, sim.Options{Logger: rec})
//	...
//	fmt.Print(rec.Timeline(logging.Filter{Contains: "QUORUM"}))
//
// It captures events up to a maximum level into a bounded ring; once
// full, the oldest events are evicted and counted in Dropped. It is
// safe for concurrent use (the TCP transport logs from multiple
// goroutines).
type Recorder struct {
	clock Clock
	max   Level

	mu   sync.Mutex
	ring obs.Ring[Event]
}

var _ Logger = (*Recorder)(nil)

// NewRecorder returns a recorder timestamping with clock (nil clock
// records zero timestamps) and capturing lines at or below max, bounded
// at DefaultCapacity events.
func NewRecorder(clock Clock, max Level) *Recorder {
	return NewBounded(clock, max, DefaultCapacity)
}

// NewBounded returns a recorder retaining up to capacity events
// (capacity <= 0 selects DefaultCapacity).
func NewBounded(clock Clock, max Level, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{clock: clock, max: max, ring: obs.NewRing[Event](capacity)}
}

// Logf implements Logger.
func (r *Recorder) Logf(level Level, format string, args ...any) {
	if level > r.max {
		return
	}
	var at time.Duration
	if r.clock != nil {
		at = r.clock()
	}
	e := Event{At: at, Level: level, Message: fmt.Sprintf(format, args...)}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring.Push(e)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Len()
}

// Dropped returns how many events were evicted from the ring.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Dropped()
}

// Filter selects events.
type Filter struct {
	// Contains keeps only events whose message contains this substring
	// (empty keeps all).
	Contains string
	// MaxLevel keeps only events at or below this level (zero keeps
	// all).
	MaxLevel Level
	// From/To bound the timestamps; a zero To means no upper bound.
	From, To time.Duration
}

func (f Filter) match(e Event) bool {
	if f.Contains != "" && !strings.Contains(e.Message, f.Contains) {
		return false
	}
	if f.MaxLevel != 0 && e.Level > f.MaxLevel {
		return false
	}
	if e.At < f.From {
		return false
	}
	if f.To != 0 && e.At > f.To {
		return false
	}
	return true
}

// Events returns a copy of the matching retained events, in capture
// order (which, under the deterministic simulator, is causal order).
func (r *Recorder) Events(f Filter) []Event {
	r.mu.Lock()
	all, _ := r.ring.Since(0)
	r.mu.Unlock()
	var out []Event
	for _, e := range all {
		if f.match(e) {
			out = append(out, e)
		}
	}
	return out
}

// Timeline renders the matching events, one per line.
func (r *Recorder) Timeline(f Filter) string {
	var b strings.Builder
	for _, e := range r.Events(f) {
		fmt.Fprintln(&b, e)
	}
	return b.String()
}

// Count returns how many events match.
func (r *Recorder) Count(f Filter) int { return len(r.Events(f)) }

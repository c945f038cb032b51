package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
)

// Dump is a flight-recorder snapshot: the reason it was taken and the
// span and event views of one read of the stream — everything needed
// to reconstruct the causal timeline leading up to a failure. Field
// order is part of the dump format; deterministic inputs (the chaos
// simulator) produce byte-identical dumps across replays.
type Dump struct {
	Reason  string  `json:"reason"`
	Dropped uint64  `json:"dropped"`
	Spans   []Span  `json:"spans"`
	Events  []Event `json:"events"`
}

// Capture snapshots the stream.
func Capture(reason string, b *Bus) Dump {
	b.mu.Lock()
	all, _ := b.ring.Since(0)
	dropped := b.ring.Dropped()
	b.mu.Unlock()
	return Dump{Reason: reason, Dropped: dropped, Spans: spansOf(all), Events: eventsOf(all)}
}

// JSON renders the dump as indented, deterministic JSON.
func (d Dump) JSON() []byte {
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		// Dump holds only marshalable fields; this cannot fail.
		panic("obs: dump marshal: " + err.Error())
	}
	return append(out, '\n')
}

// chromeEvent is one entry of the Chrome trace-event format (the
// JSON "traceEvents" array consumed by chrome://tracing and Perfetto).
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"` // microseconds
	Dur  float64    `json:"dur,omitempty"`
	Pid  uint64     `json:"pid"` // node
	Tid  uint64     `json:"tid"` // trace
	S    string     `json:"s,omitempty"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	Trace  uint64 `json:"trace,omitempty"`
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Slot   uint64 `json:"slot,omitempty"`
	View   uint64 `json:"view,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Chrome renders the dump in the Chrome trace-event format: spans as
// complete ("X") events grouped by node (pid) and trace (tid), protocol
// events as instants ("i"). Load the output in Perfetto or
// chrome://tracing to see the per-node span timelines.
func (d Dump) Chrome() []byte {
	var ct struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	ct.TraceEvents = make([]chromeEvent, 0, len(d.Spans)+len(d.Events))
	for _, s := range d.Spans {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Pid:  uint64(s.Node),
			Tid:  s.Trace,
			Args: chromeArgs{Trace: s.Trace, ID: s.ID, Parent: s.Parent, Slot: s.Slot, View: s.View},
		})
	}
	for _, e := range d.Events {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: e.Type.String(),
			Cat:  "event",
			Ph:   "i",
			Ts:   float64(e.At.Nanoseconds()) / 1e3,
			Pid:  uint64(e.Node),
			S:    "t", // thread-scoped instant
			Args: chromeArgs{Slot: e.Slot, View: e.View, Detail: e.Detail},
		})
	}
	out, err := json.MarshalIndent(ct, "", " ")
	if err != nil {
		panic("obs: chrome marshal: " + err.Error())
	}
	return append(out, '\n')
}

// crashW receives flight-recorder dumps written on fail-stop paths
// (the host kernel's persist panic). Default: standard error, so a
// crashing replica leaves its timeline in the process log.
var (
	crashMu sync.Mutex
	crashW  io.Writer = os.Stderr
)

// SetCrashWriter redirects crash dumps and returns the previous writer.
func SetCrashWriter(w io.Writer) io.Writer {
	crashMu.Lock()
	defer crashMu.Unlock()
	prev := crashW
	crashW = w
	return prev
}

// WriteCrash captures a dump and writes it to the crash writer. It is
// called on paths that are about to panic, so it never fails loudly:
// a write error is ignored (the panic itself still reports the cause).
func WriteCrash(reason string, b *Bus) {
	crashMu.Lock()
	defer crashMu.Unlock()
	_, _ = crashW.Write(Capture(reason, b).JSON())
}

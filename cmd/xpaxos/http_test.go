package main

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	qs "quorumselect"
)

type idleNode struct{}

func (idleNode) Init(qs.Env)                      {}
func (idleNode) Receive(qs.ProcessID, qs.Message) {}

// eventsPage is the /events response.
type eventsPage struct {
	Events []struct {
		Seq uint64 `json:"seq"`
	} `json:"events"`
	Missed uint64 `json:"missed"`
	Latest uint64 `json:"latest"`
}

// newEventsFrontend serves /events for an idle host recording into bus.
func newEventsFrontend(t *testing.T, bus *qs.EventBus) *frontend {
	host, err := qs.NewTCPHost(qs.HostConfig{Self: 1, System: qs.MustConfig(4, 1), Tracer: bus}, idleNode{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { host.Close() })
	return &frontend{host: host}
}

// pollEvents is one GET /events?since=cursor.
func pollEvents(t *testing.T, f *frontend, cursor uint64) eventsPage {
	rec := httptest.NewRecorder()
	f.handleEvents(rec, httptest.NewRequest("GET", "/events?since="+strconv.FormatUint(cursor, 10), nil))
	var page eventsPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("decode /events: %v", err)
	}
	return page
}

// TestEventsCursorSeesEverySeqOnce polls /events with the cursor each
// response returns while another goroutine publishes: every event must
// come back exactly once, with none skipped between two polls.
func TestEventsCursorSeesEverySeqOnce(t *testing.T) {
	const total = 2000
	bus := qs.NewEventBus(2 * total) // large enough that nothing is evicted
	f := newEventsFrontend(t, bus)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			bus.Publish(qs.Event{Slot: uint64(i)})
			time.Sleep(time.Microsecond) // interleave with many polls
		}
	}()

	seen := make(map[uint64]int, total)
	var cursor uint64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		page := pollEvents(t, f, cursor)
		if page.Missed != 0 {
			t.Fatalf("missed %d events with a ring larger than the run", page.Missed)
		}
		for _, e := range page.Events {
			seen[e.Seq]++
		}
		cursor = page.Latest
	}

	bad := 0
	for seq := uint64(1); seq <= total; seq++ {
		if seen[seq] != 1 {
			bad++
		}
	}
	if bad > 0 || len(seen) != total {
		t.Fatalf("%d of %d seqs not returned exactly once (%d distinct seen, cursor ended at %d)",
			bad, total, len(seen), cursor)
	}
}

// TestEventsCursorPastTotalServesFromStart: a poller that outlived a
// replica restart holds a cursor past the new process's total. It must
// get the new stream from its start and a cursor inside it, not an
// empty page echoing its stale cursor.
func TestEventsCursorPastTotalServesFromStart(t *testing.T) {
	bus := qs.NewEventBus(0)
	f := newEventsFrontend(t, bus)
	for i := 1; i <= 3; i++ {
		bus.Publish(qs.Event{Slot: uint64(i)})
	}
	page := pollEvents(t, f, 100)
	if len(page.Events) != 3 || page.Events[0].Seq != 1 || page.Latest != 3 || page.Missed != 0 {
		t.Fatalf("since=100 on a stream of 3: %+v; want seqs 1..3, latest 3", page)
	}
	bus.Publish(qs.Event{Slot: 4})
	if page = pollEvents(t, f, page.Latest); len(page.Events) != 1 || page.Events[0].Seq != 4 || page.Latest != 4 {
		t.Fatalf("next poll: %+v; want seq 4 only, latest 4", page)
	}
}

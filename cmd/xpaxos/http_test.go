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

// TestEventsCursorSeesEverySeqOnce polls /events with the cursor each
// response returns while another goroutine publishes: every event must
// come back exactly once, with none skipped between two polls.
func TestEventsCursorSeesEverySeqOnce(t *testing.T) {
	const total = 2000
	bus := qs.NewEventBus(2 * total) // large enough that nothing is evicted
	host, err := qs.NewTCPHost(qs.HostConfig{Self: 1, System: qs.MustConfig(4, 1), Events: bus}, idleNode{})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	f := &frontend{host: host}

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
	poll := func() {
		rec := httptest.NewRecorder()
		f.handleEvents(rec, httptest.NewRequest("GET", "/events?since="+strconv.FormatUint(cursor, 10), nil))
		var page struct {
			Events []struct {
				Seq uint64 `json:"seq"`
			} `json:"events"`
			Missed uint64 `json:"missed"`
			Latest uint64 `json:"latest"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("decode /events: %v", err)
		}
		if page.Missed != 0 {
			t.Fatalf("missed %d events with a ring larger than the run", page.Missed)
		}
		for _, e := range page.Events {
			seen[e.Seq]++
		}
		cursor = page.Latest
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		poll()
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

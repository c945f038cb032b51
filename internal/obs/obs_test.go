package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBusSequenceAndSince(t *testing.T) {
	b := NewBus(8)
	for i := 0; i < 5; i++ {
		seq := b.Publish(Event{Type: TypeSuspected, Node: 1})
		if seq != uint64(i+1) {
			t.Fatalf("Publish #%d returned seq %d", i+1, seq)
		}
	}
	if b.Total() != 5 || len(b.Events()) != 5 || b.Dropped() != 0 {
		t.Fatalf("total=%d len=%d dropped=%d", b.Total(), len(b.Events()), b.Dropped())
	}
	ev, missed := b.Since(2)
	if missed != 0 || len(ev) != 3 || ev[0].Seq != 3 || ev[2].Seq != 5 {
		t.Fatalf("Since(2) = %v (missed %d)", ev, missed)
	}
	if ev, _ := b.Since(5); ev != nil {
		t.Fatalf("Since(latest) = %v, want empty", ev)
	}
	if ev, _ := b.Since(99); ev != nil {
		t.Fatalf("Since(future) = %v, want empty", ev)
	}
}

func TestBusRingEviction(t *testing.T) {
	b := NewBus(4)
	for i := 1; i <= 10; i++ {
		b.Publish(Event{Type: TypeCheckpoint, Slot: uint64(i)})
	}
	if len(b.Events()) != 4 {
		t.Fatalf("Len = %d, want 4", len(b.Events()))
	}
	if b.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", b.Dropped())
	}
	ev, missed := b.Since(0)
	if missed != 6 {
		t.Fatalf("missed = %d, want 6", missed)
	}
	if len(ev) != 4 || ev[0].Seq != 7 || ev[3].Seq != 10 {
		t.Fatalf("events = %v", ev)
	}
	// Partial catch-up inside the retained window.
	ev, missed = b.Since(8)
	if missed != 0 || len(ev) != 2 || ev[0].Seq != 9 {
		t.Fatalf("Since(8) = %v (missed %d)", ev, missed)
	}
}

func TestBusOfTypeAndString(t *testing.T) {
	b := NewBus(16)
	b.Publish(Event{Type: TypeSuspected, Node: 1, Subject: 4})
	b.Publish(Event{Type: TypeQuorumChange, Node: 1, Epoch: 2, Detail: "{p1,p3,p4}"})
	b.Publish(Event{Type: TypeSuspected, Node: 2, Subject: 4})
	if got := len(b.OfType(TypeSuspected)); got != 2 {
		t.Errorf("OfType(SUSPECTED) = %d, want 2", got)
	}
	s := b.OfType(TypeQuorumChange)[0].String()
	for _, want := range []string{"QUORUM_CHANGE", "epoch=2", "{p1,p3,p4}"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestEventJSON(t *testing.T) {
	e := Event{Seq: 3, At: 5 * time.Millisecond, Node: 2, Type: TypeDetected, Subject: 4}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"type":"DETECTED"`, `"seq":3`, `"subject":4`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON %s missing %s", s, want)
		}
	}
	if strings.Contains(s, "view") || strings.Contains(s, "detail") {
		t.Errorf("JSON %s should omit zero optional fields", s)
	}
}

// TestBusConcurrency hammers Publish/Since/Dropped from multiple
// goroutines; meaningful under -race.
func TestBusConcurrency(t *testing.T) {
	b := NewBus(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Publish(Event{Type: TypeSuspected, Node: 1})
				if i%50 == 0 {
					_, _ = b.Since(uint64(i))
					_ = b.Dropped()
					_ = b.Events()
				}
			}
		}()
	}
	wg.Wait()
	if b.Total() != 8000 {
		t.Fatalf("Total = %d, want 8000", b.Total())
	}
	if len(b.Events()) != 128 || b.Dropped() != 8000-128 {
		t.Fatalf("len=%d dropped=%d", len(b.Events()), b.Dropped())
	}
}

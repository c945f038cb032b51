package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/wire"
)

// newTracing returns a stream with spans on.
func newTracing(capacity int) *Bus {
	b := NewBus(capacity)
	b.SetEnabled(true)
	return b
}

func TestSpanTreeBasics(t *testing.T) {
	tr := newTracing(8)
	root := tr.Start(3, "ingress", wire.TraceContext{}, 10*time.Millisecond)
	if root.Context().Trace != root.Context().Span {
		t.Errorf("root trace %#x != span %#x", root.Context().Trace, root.Context().Span)
	}
	child := tr.Start(3, "propose", root.Context(), 12*time.Millisecond)
	child.SetSlot(7)
	child.SetView(2)
	child.End(15 * time.Millisecond)
	root.End(20 * time.Millisecond)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Recording order is End order: the child closed first.
	c, r := spans[0], spans[1]
	if c.Name != "propose" || r.Name != "ingress" {
		t.Fatalf("unexpected recording order: %q, %q", c.Name, r.Name)
	}
	if c.Trace != r.ID || c.Parent != r.ID {
		t.Errorf("child not parented on root: %+v vs root %+v", c, r)
	}
	if c.Slot != 7 || c.View != 2 {
		t.Errorf("slot/view tags lost: %+v", c)
	}
	if c.Dur != 3*time.Millisecond || r.Dur != 10*time.Millisecond {
		t.Errorf("durations: child %v (want 3ms), root %v (want 10ms)", c.Dur, r.Dur)
	}
}

func TestNodePrefixedIDsNeverCollide(t *testing.T) {
	tr := newTracing(64)
	seen := make(map[uint64]bool)
	for node := 1; node <= 4; node++ {
		for i := 0; i < 10; i++ {
			a := tr.Start(ids.ProcessID(node), "s", wire.TraceContext{}, 0)
			if seen[a.Context().Span] {
				t.Fatalf("duplicate span ID %#x", a.Context().Span)
			}
			seen[a.Context().Span] = true
			a.End(0)
		}
	}
}

func TestRingEvictionAndDropped(t *testing.T) {
	tr := newTracing(4)
	for i := 1; i <= 10; i++ {
		tr.Start(1, "e", wire.TraceContext{}, time.Duration(i)).End(time.Duration(i))
	}
	if got := tr.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	// Oldest-first: the last four recorded instants in order.
	for i, s := range spans {
		if want := time.Duration(i + 7); s.Start != want {
			t.Errorf("span %d start = %v, want %v (eviction order broken)", i, s.Start, want)
		}
	}
}

func TestBackwardsClockClampsToZero(t *testing.T) {
	tr := newTracing(4)
	a := tr.Start(1, "s", wire.TraceContext{}, 10*time.Millisecond)
	a.End(5 * time.Millisecond) // restarted clock
	if d := tr.Spans()[0].Dur; d != 0 {
		t.Errorf("backwards clock produced duration %v, want 0", d)
	}
}

// TestSpansOffIsInert: with spans off, Start hands out an inert Active
// and records nothing — without taking the stream's lock, which the
// test holds throughout.
func TestSpansOffIsInert(t *testing.T) {
	b := NewBus(4)
	b.mu.Lock()
	done := make(chan Active)
	go func() {
		a := b.Start(1, "s", wire.TraceContext{}, 0)
		a.SetSlot(1)
		a.SetView(1)
		a.End(time.Second)
		b.Start(1, "i", wire.TraceContext{}, 0).End(0)
		done <- a
	}()
	select {
	case a := <-done:
		if a.Traced() || !a.Context().Zero() {
			t.Errorf("spans off returned a traced Active: %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Start/End with spans off waited for the stream's lock")
	}
	b.mu.Unlock()
	if b.Total() != 0 || len(b.Spans()) != 0 {
		t.Errorf("spans off recorded %d records", b.Total())
	}
}

func TestCaptureEmpty(t *testing.T) {
	d := Capture("empty", NewBus(4))
	if d.Reason != "empty" || len(d.Spans) != 0 || len(d.Events) != 0 {
		t.Errorf("Capture(empty stream) = %+v", d)
	}
	var dump Dump
	if err := json.Unmarshal(d.JSON(), &dump); err != nil {
		t.Fatalf("dump JSON does not round-trip: %v", err)
	}
	var ct struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(d.Chrome(), &ct); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	if ct.TraceEvents == nil {
		t.Error("chrome export omits traceEvents array")
	}
}

func TestSetCrashWriter(t *testing.T) {
	var buf bytes.Buffer
	prev := SetCrashWriter(&buf)
	defer SetCrashWriter(prev)
	tr := newTracing(4)
	tr.Start(2, "doomed", wire.TraceContext{}, time.Millisecond).End(time.Millisecond)
	WriteCrash("test crash", tr)
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("crash dump does not parse: %v", err)
	}
	if d.Reason != "test crash" || len(d.Spans) != 1 || d.Spans[0].Name != "doomed" {
		t.Errorf("crash dump = %+v", d)
	}
}

// TestConcurrentStorm hammers one stream from span writers and
// readers at once; run under -race this pins the locking contract the
// /trace endpoint and multi-host TCP deployments rely on.
func TestConcurrentStorm(t *testing.T) {
	tr := newTracing(128)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 1; w <= 4; w++ {
		writers.Add(1)
		go func(node ids.ProcessID) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				a := tr.Start(node, "storm", wire.TraceContext{}, time.Duration(i))
				a.SetSlot(uint64(i))
				tr.Start(node, "storm.instant", a.Context(), time.Duration(i)).End(time.Duration(i))
				a.End(time.Duration(i + 1))
			}
		}(ids.ProcessID(w))
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = tr.Spans()
					_ = tr.Dropped()
					_ = Capture("storm", tr).JSON()
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := tr.Total(); got != 4*500*2 {
		t.Errorf("Total = %d, want %d", got, 4*500*2)
	}
	if got := len(tr.Spans()); got != 128 {
		t.Errorf("ring len = %d, want 128", got)
	}
}

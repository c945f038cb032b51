package logging_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/logging"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	now := time.Duration(0)
	rec := logging.NewRecorder(func() time.Duration { return now }, logging.LevelDebug)
	rec.Logf(logging.LevelInfo, "first %d", 1)
	now = 50 * time.Millisecond
	rec.Logf(logging.LevelDebug, "second")
	rec.Logf(logging.LevelTrace, "dropped (too verbose)")

	if rec.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rec.Len())
	}
	events := rec.Events(logging.Filter{})
	if events[0].Message != "first 1" || events[0].At != 0 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].At != 50*time.Millisecond {
		t.Errorf("event 1 at %v", events[1].At)
	}
}

func TestRecorderFilters(t *testing.T) {
	now := time.Duration(0)
	rec := logging.NewRecorder(func() time.Duration { return now }, logging.LevelDebug)
	rec.Logf(logging.LevelError, "boom")
	now = 10 * time.Millisecond
	rec.Logf(logging.LevelInfo, "quorum issued")
	now = 20 * time.Millisecond
	rec.Logf(logging.LevelDebug, "quorum recomputed")

	if got := rec.Count(logging.Filter{Contains: "quorum"}); got != 2 {
		t.Errorf("Contains filter = %d, want 2", got)
	}
	if got := rec.Count(logging.Filter{MaxLevel: logging.LevelInfo}); got != 2 {
		t.Errorf("MaxLevel filter = %d, want 2", got)
	}
	if got := rec.Count(logging.Filter{From: 15 * time.Millisecond}); got != 1 {
		t.Errorf("From filter = %d, want 1", got)
	}
	if got := rec.Count(logging.Filter{To: 15 * time.Millisecond}); got != 2 {
		t.Errorf("To filter = %d, want 2", got)
	}
	tl := rec.Timeline(logging.Filter{Contains: "boom"})
	if !strings.Contains(tl, "ERROR") || !strings.Contains(tl, "boom") {
		t.Errorf("Timeline = %q", tl)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	rec := logging.NewBounded(nil, logging.LevelDebug, 4)
	for i := 1; i <= 10; i++ {
		rec.Logf(logging.LevelInfo, "line %d", i)
	}
	if rec.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rec.Len())
	}
	if rec.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", rec.Dropped())
	}
	events := rec.Events(logging.Filter{})
	if len(events) != 4 || events[0].Message != "line 7" || events[3].Message != "line 10" {
		t.Fatalf("retained events = %v", events)
	}
}

func TestRecorderBoundedDefaultCapacity(t *testing.T) {
	rec := logging.NewBounded(nil, logging.LevelDebug, 0)
	rec.Logf(logging.LevelInfo, "one")
	if rec.Len() != 1 || rec.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", rec.Len(), rec.Dropped())
	}
}

// TestRecorderConcurrency hammers Logf/Events/Len/Dropped from multiple
// goroutines; meaningful under -race.
func TestRecorderConcurrency(t *testing.T) {
	rec := logging.NewBounded(nil, logging.LevelDebug, 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				rec.Logf(logging.LevelInfo, "g%d line %d", g, i)
				if i%100 == 0 {
					_ = rec.Events(logging.Filter{Contains: fmt.Sprintf("g%d", g)})
					_ = rec.Len()
					_ = rec.Dropped()
				}
			}
		}(g)
	}
	wg.Wait()
	if rec.Len() != 128 {
		t.Fatalf("Len = %d, want 128", rec.Len())
	}
	if rec.Dropped() != 8*500-128 {
		t.Fatalf("Dropped = %d, want %d", rec.Dropped(), 8*500-128)
	}
}

func TestRecorderCapturesSimulationDeterministically(t *testing.T) {
	run := func() string {
		cfg := ids.MustConfig(4, 1)
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
		coreNodes := make(map[ids.ProcessID]*core.Node, cfg.N)
		for _, p := range cfg.All() {
			node := core.NewNode(opts)
			coreNodes[p] = node
			nodes[p] = node
		}
		var net *sim.Network
		rec := logging.NewRecorder(func() time.Duration { return net.Now() }, logging.LevelDebug)
		net = sim.NewNetwork(cfg, nodes, sim.Options{Seed: 3, Logger: rec})
		coreNodes[1].Selector.OnSuspected(ids.NewProcSet(2))
		net.Run(time.Second)
		return rec.Timeline(logging.Filter{Contains: "QUORUM"})
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("no QUORUM events captured")
	}
	if a != b {
		t.Fatalf("traces differ between identical runs:\n%s\nvs\n%s", a, b)
	}
	// Every process logged the same quorum decision.
	if got := strings.Count(a, "QUORUM {p1,p3,p4}"); got != 4 {
		t.Errorf("expected 4 QUORUM events, trace:\n%s", a)
	}
}

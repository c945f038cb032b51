package xpaxos_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"quorumselect/internal/chaos"
	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// TestWindowBoundsInflight pins the backpressure contract: with a
// commit window of w, a burst of submissions proposes exactly w slots
// and pools the rest in the ingress mempool until capacity frees; every
// pooled request still commits, in order, once the pipeline drains.
func TestWindowBoundsInflight(t *testing.T) {
	const total, window = 10, 2
	c := newBatchClusterOpts(t, 4, 1, xpaxos.Options{
		BatchSize: 1,
		Window:    window,
	}, quietNodeOpts(), sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)})

	c.submitAll(total)
	// Nothing has round-tripped yet at t=1ms (links are 2ms), so the
	// leader's proposals are exactly the window; the other 8 requests sit
	// in the mempool as buffered ingress, not protocol state.
	c.net.Run(time.Millisecond)
	if got := c.net.Metrics().Counter("xpaxos.prepare.sent"); got != window {
		t.Fatalf("leader proposed %d slots with window %d in flight-limit state", got, window)
	}

	c.runUntilExecuted(t, total)
	for _, p := range []ids.ProcessID{1, 2, 3} {
		execs := c.replicas[p].Executions()
		if len(execs) != total {
			t.Fatalf("%s executed %d requests, want %d", p, len(execs), total)
		}
		for i, e := range execs {
			if e.Slot != uint64(i+1) {
				t.Fatalf("%s executed slot %d at position %d: pipeline broke slot order", p, e.Slot, i)
			}
		}
	}
	lead := c.replicas[1].Executions()
	for _, p := range []ids.ProcessID{2, 3} {
		other := c.replicas[p].Executions()
		for i := range lead {
			if !bytes.Equal(lead[i].Op, other[i].Op) {
				t.Fatalf("%s diverges from leader at slot %d", p, lead[i].Slot)
			}
		}
	}
}

// dropFrom drops every message sent by one process — a silent
// (crash-like omission) fault that stalls the active quorum and forces
// a view change away from it.
type dropFrom struct{ p ids.ProcessID }

func (d dropFrom) Filter(from, _ ids.ProcessID, _ wire.Message, _ time.Duration) sim.Verdict {
	if from == d.p {
		return sim.Verdict{Drop: true}
	}
	return sim.Verdict{}
}

// TestViewChangeWithInflightWindow is the pipelined view-change test:
// the leader has a full window of uncommitted slots in flight (plus a
// mempool of gated requests behind them) when a quorum member goes
// silent and the view changes. Every in-flight slot must survive the
// change via the accepted-log merge and re-propose, the gated residue
// must drain after the install, and the final histories must be
// complete, gap-free, and identical on every member of the new quorum.
func TestViewChangeWithInflightWindow(t *testing.T) {
	const total, window = 8, 4
	c := newBatchClusterOpts(t, 4, 1, xpaxos.Options{
		BatchSize: 1,
		Window:    window,
	}, core.DefaultNodeOptions(), sim.Options{
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Filter:  dropFrom{p: 2},
	})

	c.submitAll(total)
	// Before the failure detector times out (base 40ms), the stalled
	// pipeline holds exactly a window of proposals: p2's COMMITs never
	// arrive, so nothing commits and nothing new may propose.
	c.net.Run(20 * time.Millisecond)
	if got := c.net.Metrics().Counter("xpaxos.prepare.sent"); got != window {
		t.Fatalf("stalled leader proposed %d slots, want the window %d", got, window)
	}

	// Let suspicion, quorum selection, the view change, the in-flight
	// re-propose, and the mempool drain all play out.
	ok := c.net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 3, 4} {
			if len(c.replicas[p].Executions()) < total {
				return false
			}
		}
		return true
	}, 60*time.Second)
	if !ok {
		t.Fatalf("pipeline did not recover across the view change: leader executed %d/%d",
			len(c.replicas[1].Executions()), total)
	}
	if vc := c.replicas[1].ViewChanges(); vc == 0 {
		t.Fatal("no view change happened; the test exercised nothing")
	}
	if q := c.replicas[1].ActiveQuorum(); q.Contains(2) {
		t.Fatalf("active quorum %s still contains the silent process", q)
	}

	lead := c.replicas[1].Executions()
	for _, p := range []ids.ProcessID{3, 4} {
		other := c.replicas[p].Executions()
		if len(other) != total {
			t.Fatalf("%s executed %d requests, want %d", p, len(other), total)
		}
		for i := range lead {
			if lead[i].Slot != other[i].Slot || !bytes.Equal(lead[i].Op, other[i].Op) {
				t.Fatalf("%s diverges from leader at position %d: slot %d vs %d",
					p, i, other[i].Slot, lead[i].Slot)
			}
		}
	}
	// No slot lost, none executed twice: positions map 1:1 onto slots.
	for i, e := range lead {
		if e.Slot != uint64(i+1) {
			t.Fatalf("leader history has slot %d at position %d: gap or duplicate across the view change", e.Slot, i)
		}
	}
}

// TestPipelinedBatchingEquivalence is the windowed differential: the
// same workload through the unwindowed unbatched seed path, a
// lockstep window (1), and a deep window with batching must produce
// identical replicated request streams. Windowing changes scheduling
// and backpressure, never history.
func TestPipelinedBatchingEquivalence(t *testing.T) {
	const total = 24
	run := func(batch, window int) []xpaxos.Execution {
		c := newBatchCluster(t, 4, 1, xpaxos.Options{
			BatchSize:       batch,
			MaxBatchLatency: 2 * time.Millisecond,
			Window:          window,
		})
		c.submitAll(total)
		c.runUntilExecuted(t, total)
		return c.replicas[1].Executions()
	}
	ref := run(1, 0)
	if len(ref) != total {
		t.Fatalf("reference run executed %d requests, want %d", len(ref), total)
	}
	for _, cfg := range []struct{ batch, window int }{{1, 1}, {4, 4}, {4, 1}, {1, 16}} {
		got := run(cfg.batch, cfg.window)
		if len(got) != len(ref) {
			t.Fatalf("batch=%d window=%d executed %d requests, reference %d",
				cfg.batch, cfg.window, len(got), len(ref))
		}
		for i := range ref {
			if ref[i].Client != got[i].Client || ref[i].Seq != got[i].Seq ||
				!bytes.Equal(ref[i].Op, got[i].Op) || !bytes.Equal(ref[i].Result, got[i].Result) {
				t.Fatalf("batch=%d window=%d diverges from reference at %d: %v vs %v",
					cfg.batch, cfg.window, i, got[i], ref[i])
			}
		}
	}
}

// TestEd25519ReplayDeterminism replays one seed twice with every
// nondeterminism-prone feature of the pipelined path enabled at once —
// real Ed25519 signatures checked at delivery, per-link reordering, a
// bounded window — and requires byte-identical outcomes: same
// executions and the same Chrome trace export, span for span.
func TestEd25519ReplayDeterminism(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	run := func() ([]xpaxos.Execution, []byte) {
		auth, err := crypto.NewEd25519Ring(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewBus(0)
		tr.SetEnabled(true)
		c := newBatchClusterOpts(t, 4, 1, xpaxos.Options{
			BatchSize: 2,
			Window:    3,
		}, quietNodeOpts(), sim.Options{
			Seed:         99,
			Latency:      sim.UniformLatency(time.Millisecond, 8*time.Millisecond),
			Auth:         auth,
			AllowReorder: true,
			Tracer:       tr,
		})
		const total = 16
		c.submitAll(total)
		c.runUntilExecuted(t, total)
		return c.replicas[1].Executions(), obs.Capture("determinism", tr).Chrome()
	}
	execA, chromeA := run()
	execB, chromeB := run()
	if len(execA) != len(execB) {
		t.Fatalf("replays executed %d vs %d requests", len(execA), len(execB))
	}
	for i := range execA {
		if execA[i].Slot != execB[i].Slot || !bytes.Equal(execA[i].Op, execB[i].Op) ||
			!bytes.Equal(execA[i].Result, execB[i].Result) {
			t.Fatalf("replays diverge at %d: %v vs %v", i, execA[i], execB[i])
		}
	}
	if !bytes.Equal(chromeA, chromeB) {
		t.Fatalf("Chrome exports differ across replays (%d vs %d bytes)",
			len(chromeA), len(chromeB))
	}
}

// TestTraceVerifyWaitSpans pins that no message waits for its
// signature check on the loop: frames are authenticated where they land,
// before they become loop events, so a traced Ed25519 run records no
// verify.wait span (xpaxos.stage_us.verify_wait reads 0 by
// construction) and its spans still tile the commit path.
func TestTraceVerifyWaitSpans(t *testing.T) {
	auth, err := crypto.NewEd25519Ring(ids.MustConfig(4, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewBus(0)
	tr.SetEnabled(true)
	c := newBatchClusterOpts(t, 4, 1, xpaxos.Options{
		BatchSize: 1,
		Window:    4,
	}, quietNodeOpts(), sim.Options{
		Latency: sim.ConstantLatency(2 * time.Millisecond),
		Auth:    auth,
		Tracer:  tr,
	})
	c.submitAll(6)
	c.runUntilExecuted(t, 6)
	accepts := 0
	for _, s := range tr.Spans() {
		switch s.Name {
		case "verify.wait":
			t.Fatalf("verify.wait span on %s: a message waited on the loop for its signature check", s.Node)
		case "accept":
			accepts++
		}
	}
	if accepts == 0 {
		t.Fatal("traced run recorded no accept spans")
	}
}

// TestPipelineUnderChaosSchedule replays a chaos-generated fault
// schedule against the windowed pipeline and the unwindowed reference:
// both must commit the identical request stream even when the schedule
// drops, delays, and duplicates protocol traffic mid-window.
func TestPipelineUnderChaosSchedule(t *testing.T) {
	classes := []chaos.FaultClass{
		chaos.FaultOmission, chaos.FaultBurst, chaos.FaultTiming, chaos.FaultDuplicate,
	}
	cfg := ids.MustConfig(4, 1)
	const total = 18
	seeds := chaosSeeds(cfg, classes, 2)
	if len(seeds) == 0 {
		t.Fatal("no usable chaos seeds")
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			run := func(window int) []xpaxos.Execution {
				sc := chaos.GenerateScenario(cfg, seed, classes, false, 4*time.Second)
				c := newBatchClusterOpts(t, 4, 1, xpaxos.Options{
					BatchSize:       2,
					MaxBatchLatency: 2 * time.Millisecond,
					Window:          window,
				}, core.DefaultNodeOptions(), sim.Options{
					Seed:   seed,
					Filter: exemptClientPath{inner: sc.Filter},
				})
				gap := 4 * time.Second / time.Duration(total+1)
				for i := 1; i <= total; i++ {
					i := i
					c.net.At(time.Duration(i)*gap, func() {
						c.replicas[1].Submit(req(uint64(1+i%3), uint64(1+(i-1)/3), fmt.Sprintf("set k%d v%d", i, i)))
					})
				}
				ok := c.net.RunUntil(func() bool {
					return len(c.replicas[1].Executions()) >= total
				}, 60*time.Second)
				if !ok {
					t.Fatalf("window=%d stalled: %d/%d executed under schedule %v",
						window, len(c.replicas[1].Executions()), total, sc.Desc)
				}
				return c.replicas[1].Executions()
			}
			ref := run(0)
			got := run(4)
			if len(got) != len(ref) {
				t.Fatalf("windowed run executed %d requests, reference %d", len(got), len(ref))
			}
			for i := range ref {
				if ref[i].Client != got[i].Client || ref[i].Seq != got[i].Seq ||
					!bytes.Equal(ref[i].Op, got[i].Op) || !bytes.Equal(ref[i].Result, got[i].Result) {
					t.Fatalf("windowed history diverges at %d: %v vs %v", i, got[i], ref[i])
				}
			}
		})
	}
}

package xpaxos_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"quorumselect/internal/chaos"
	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// batchCluster builds an n-process XPaxos-on-QS simulation with the
// given replica options (the plain fixture hard-codes defaults).
type batchCluster struct {
	net      *sim.Network
	replicas map[ids.ProcessID]*xpaxos.Replica
}

func newBatchCluster(tb testing.TB, n, f int, xopts xpaxos.Options) *batchCluster {
	return newBatchClusterOpts(tb, n, f, xopts, quietNodeOpts(), sim.Options{})
}

func newBatchClusterOpts(tb testing.TB, n, f int, xopts xpaxos.Options, nodeOpts core.NodeOptions, simOpts sim.Options) *batchCluster {
	tb.Helper()
	cfg := ids.MustConfig(n, f)
	nodes := make(map[ids.ProcessID]runtime.Node, n)
	c := &batchCluster{replicas: make(map[ids.ProcessID]*xpaxos.Replica, n)}
	for _, p := range cfg.All() {
		node, replica := xpaxos.NewQSNode(xopts, nodeOpts)
		c.replicas[p] = replica
		nodes[p] = node
	}
	c.net = sim.NewNetwork(cfg, nodes, simOpts)
	return c
}

func (c *batchCluster) submitAll(total int) {
	c.submitRange(1, total)
}

// submitRange submits requests from..to (inclusive, 1-based) of the
// standard workload, so callers can feed the cluster incrementally.
func (c *batchCluster) submitRange(from, to int) {
	for i := from; i <= to; i++ {
		c.replicas[1].Submit(req(uint64(1+i%3), uint64(1+(i-1)/3), fmt.Sprintf("set k%d v%d", i, i)))
	}
}

func (c *batchCluster) runUntilExecuted(tb testing.TB, total int) {
	tb.Helper()
	ok := c.net.RunUntil(func() bool {
		for _, p := range []ids.ProcessID{1, 2, 3} {
			if len(c.replicas[p].Executions()) < total {
				return false
			}
		}
		return true
	}, 60*time.Second)
	if !ok {
		tb.Fatalf("cluster stalled: leader executed %d/%d requests",
			len(c.replicas[1].Executions()), total)
	}
}

// TestBatchingEquivalence commits the same workload unbatched (batch
// size 1, the seed proposal path) and batched (32), and requires the
// replicated request streams to be identical: same requests, same
// relative order, same results, on every quorum member. Batching may
// change slot boundaries but must never change the replicated history.
func TestBatchingEquivalence(t *testing.T) {
	const total = 24
	run := func(batch int) *batchCluster {
		c := newBatchCluster(t, 4, 1, xpaxos.Options{
			BatchSize: batch,
		})
		c.submitAll(total)
		c.runUntilExecuted(t, total)
		return c
	}
	unbatched := run(1)
	batched := run(32)

	// Every quorum member of each run agrees with its own leader.
	for _, c := range []*batchCluster{unbatched, batched} {
		lead := c.replicas[1].Executions()
		for _, p := range []ids.ProcessID{2, 3} {
			other := c.replicas[p].Executions()
			if len(other) != len(lead) {
				t.Fatalf("%s executed %d requests, leader %d", p, len(other), len(lead))
			}
			for i := range lead {
				if lead[i].Slot != other[i].Slot || !bytes.Equal(lead[i].Op, other[i].Op) {
					t.Fatalf("%s diverges at %d: %v vs %v", p, i, other[i], lead[i])
				}
			}
		}
	}

	// Batched and unbatched histories carry the same requests in the
	// same order with the same results; only slot numbering may differ.
	a, b := unbatched.replicas[1].Executions(), batched.replicas[1].Executions()
	if len(a) != total || len(b) != total {
		t.Fatalf("executed %d unbatched vs %d batched, want %d", len(a), len(b), total)
	}
	for i := range a {
		if a[i].Client != b[i].Client || a[i].Seq != b[i].Seq ||
			!bytes.Equal(a[i].Op, b[i].Op) || !bytes.Equal(a[i].Result, b[i].Result) {
			t.Fatalf("histories diverge at %d: unbatched %v (%q) vs batched %v (%q)",
				i, a[i], a[i].Result, b[i], b[i].Result)
		}
	}

	// The batched run must actually have batched: far fewer PREPAREs
	// (one per slot, many requests per slot).
	up := unbatched.net.Metrics().Counter("msg.sent.PREPARE")
	bp := batched.net.Metrics().Counter("msg.sent.PREPARE")
	if bp >= up {
		t.Errorf("batched run sent %d PREPAREs, unbatched %d: batching had no effect", bp, up)
	}
}

// exemptClientPath passes client-facing frames (REQUEST forwards and
// ingress BATCH gossip) through untouched and applies the inner chaos
// schedule to everything else. Client requests are submitted exactly
// once and never retransmitted, so dropping them would turn the
// differential test into a test of client retry logic the repo does not
// model; protocol traffic (PREPARE, COMMIT, view changes, heartbeats)
// takes the full schedule.
type exemptClientPath struct{ inner sim.Filter }

func (e exemptClientPath) Filter(from, to ids.ProcessID, m wire.Message, now time.Duration) sim.Verdict {
	switch m.Kind() {
	case wire.TypeRequest, wire.TypeBatch:
		return sim.Verdict{}
	}
	return e.inner.Filter(from, to, m, now)
}

// chaosSeeds picks the first want seeds whose generated schedule leaves
// process 1 — the submission target and initial leader — correct, so
// every submitted request stays recoverable via that replica's log.
func chaosSeeds(cfg ids.Config, classes []chaos.FaultClass, want int) []int64 {
	var seeds []int64
	for seed := int64(1); len(seeds) < want && seed < 200; seed++ {
		sc := chaos.GenerateScenario(cfg, seed, classes, false, 4*time.Second)
		if !sc.Faulty.Contains(1) {
			seeds = append(seeds, seed)
		}
	}
	return seeds
}

// TestBatchingEquivalenceUnderChaos is the adversarial version of
// TestBatchingEquivalence: the same chaos-generated drop/delay/
// duplication schedule is replayed against batch sizes 1, 8, and 32,
// and all three runs must commit the identical request stream — same
// requests, same order, same results. Message loss may change slot
// boundaries, trigger view changes, and force re-proposals, but it must
// never change the replicated history.
func TestBatchingEquivalenceUnderChaos(t *testing.T) {
	classes := []chaos.FaultClass{
		chaos.FaultOmission, chaos.FaultBurst, chaos.FaultTiming,
		chaos.FaultIncreasingTiming, chaos.FaultDuplicate,
	}
	cfg := ids.MustConfig(4, 1)
	const total = 18

	for _, seed := range chaosSeeds(cfg, classes, 3) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			run := func(batch int) []xpaxos.Execution {
				// Filters are stateful (omission counters, burst clocks):
				// regenerate the schedule for every run.
				sc := chaos.GenerateScenario(cfg, seed, classes, false, 4*time.Second)
				// Heartbeats stay on (unlike the quiet fixture): they are
				// the traffic the fault schedule mostly acts on, and they
				// drive the suspicions that make quorums move mid-run.
				c := newBatchClusterOpts(t, 4, 1, xpaxos.Options{
					BatchSize: batch,
				}, core.DefaultNodeOptions(), sim.Options{
					Seed:   seed,
					Filter: exemptClientPath{inner: sc.Filter},
				})
				// Spread submissions across the fault windows — submitted
				// all at once they would commit before the first window
				// opens and the schedule would never touch the run.
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
					t.Fatalf("batch=%d stalled: %d/%d executed under schedule %v",
						batch, len(c.replicas[1].Executions()), total, sc.Desc)
				}
				return c.replicas[1].Executions()
			}

			ref := run(1)
			if len(ref) != total {
				t.Fatalf("unbatched run executed %d requests, want %d", len(ref), total)
			}
			for _, batch := range []int{8, 32} {
				got := run(batch)
				if len(got) != len(ref) {
					t.Fatalf("batch=%d executed %d requests, unbatched %d", batch, len(got), len(ref))
				}
				for i := range ref {
					if ref[i].Client != got[i].Client || ref[i].Seq != got[i].Seq ||
						!bytes.Equal(ref[i].Op, got[i].Op) || !bytes.Equal(ref[i].Result, got[i].Result) {
						t.Fatalf("batch=%d diverges from unbatched at %d: %v (%q) vs %v (%q)",
							batch, i, got[i], got[i].Result, ref[i], ref[i].Result)
					}
				}
			}
		})
	}
}

package quorumselect_test

// Timers for the building blocks — graph search, codec, authenticators,
// suspicion merge and graph cache, the simulator's loop — each over one
// package's API:
//
//	go test -run '^$' -bench . -benchmem .
//
// A whole-system number does not come from here: `bash bench/run.sh` is
// the repo benchmark (BENCHMARK.json), and cmd/benchpaper prints the
// paper's tables E1–E13.

import (
	"fmt"
	"testing"
	"time"

	"quorumselect/internal/crypto"
	"quorumselect/internal/graph"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/suspicion"
	"quorumselect/internal/wire"
)

func BenchmarkFirstIndependentSet(b *testing.B) {
	// Beyond n=30 the graphs are kept sparse (edges = n/4) so q = n−n/4
	// is guaranteed feasible — the paper's regime, where few processes
	// are suspected relative to n. Dense near-infeasible instances are
	// exponential for the exact search and not representative.
	for _, size := range []struct{ n, edges int }{
		{10, 8}, {20, 20}, {30, 40}, {64, 16}, {128, 32}, {256, 64},
	} {
		b.Run(fmt.Sprintf("n=%d,e=%d", size.n, size.edges), func(b *testing.B) {
			g := graph.New(size.n)
			// Deterministic pseudo-random sparse graph.
			x := uint64(88172645463325252)
			next := func(mod int) int {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return int(x % uint64(mod))
			}
			for i := 0; i < size.edges; i++ {
				g.AddEdge(ids.ProcessID(next(size.n)+1), ids.ProcessID(next(size.n)+1))
			}
			q := size.n - size.n/4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.FirstIndependentSet(q)
			}
		})
	}
}

func BenchmarkMaximalLineSubgraph(b *testing.B) {
	for _, size := range []struct{ n, edges int }{{10, 8}, {20, 16}, {30, 24}} {
		b.Run(fmt.Sprintf("n=%d,e=%d", size.n, size.edges), func(b *testing.B) {
			g := graph.New(size.n)
			x := uint64(2463534242)
			next := func(mod int) int {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return int(x % uint64(mod))
			}
			for i := 0; i < size.edges; i++ {
				g.AddEdge(ids.ProcessID(next(size.n)+1), ids.ProcessID(next(size.n)+1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.MaximalLineSubgraph(g)
			}
		})
	}
}

func BenchmarkWireCodec(b *testing.B) {
	msg := &wire.Commit{
		Replica: 3, View: 7, Slot: 99, HasPrep: true,
		Prep: wire.Prepare{Leader: 1, View: 7, Slot: 99,
			Req: wire.Request{Client: 1, Seq: 2, Op: []byte("set key value")},
			Sig: make([]byte, 64)},
		Sig: make([]byte, 64),
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wire.Encode(msg)
		}
	})
	data := wire.Encode(msg)
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wire.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAuthenticators(b *testing.B) {
	cfg := ids.MustConfig(7, 2)
	data := []byte("canonical message bytes for signing benchmarks")
	ed, err := crypto.NewEd25519Ring(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	rings := []struct {
		name string
		ring crypto.Authenticator
	}{
		{"ed25519", ed},
		{"hmac", crypto.NewHMACRing(cfg, []byte("secret"))},
		{"nop", crypto.NopRing{}},
	}
	for _, rc := range rings {
		ring := rc.ring
		sig, err := ring.Sign(1, data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(rc.name+"/sign", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ring.Sign(1, data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(rc.name+"/verify", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ring.Verify(1, data, sig); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/verify")
		})
		// Batched verification of a commit-certificate-shaped workload:
		// q distinct COMMIT signatures plus q copies of one embedded
		// PREPARE signature. The batched pass dedups the copies, so its
		// per-item ns/verify amortizes against the serial loop above.
		b.Run(rc.name+"/verify-batched", func(b *testing.B) {
			pool := crypto.NewPool(ring, 0)
			defer pool.Close()
			items := certBatch(b, cfg, ring)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, err := range pool.VerifyBatch(items) {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(items)), "ns/verify")
		})
	}
}

// certBatch builds the batch of one quorum commit certificate: a
// distinct COMMIT signature per quorum member, each paired with a copy
// of the same embedded PREPARE signature.
func certBatch(b *testing.B, cfg ids.Config, ring crypto.Authenticator) []crypto.BatchItem {
	b.Helper()
	members := cfg.All()[:cfg.Q()]
	prepData := []byte("PREPARE view=1 slot=42 op=set k v")
	prepSig, err := ring.Sign(members[0], prepData)
	if err != nil {
		b.Fatal(err)
	}
	items := make([]crypto.BatchItem, 0, 2*len(members))
	for _, p := range members {
		commitData := []byte(fmt.Sprintf("COMMIT view=1 slot=42 replica=%s", p))
		commitSig, err := ring.Sign(p, commitData)
		if err != nil {
			b.Fatal(err)
		}
		items = append(items,
			crypto.BatchItem{Signer: p, Data: commitData, Sig: commitSig},
			crypto.BatchItem{Signer: members[0], Data: prepData, Sig: prepSig})
	}
	return items
}

func BenchmarkSuspicionMerge(b *testing.B) {
	cfg := ids.MustConfig(16, 5)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	for _, p := range cfg.All() {
		nodes[p] = benchSilent{}
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	store := suspicion.New(cfg, suspicion.Options{Forward: false})
	store.Bind(net.Env(1), nil)
	row := make([]uint64, cfg.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row[i%cfg.N] = uint64(i + 1)
		store.HandleUpdate(&wire.Update{Owner: 2, Row: row, Sig: []byte{0}})
	}
}

// benchWarmStore returns a store whose matrix holds a sparse ring of
// current-epoch suspicions — the shared workload for the suspect-graph
// benchmarks below.
func benchWarmStore(n int) *suspicion.Store {
	cfg := ids.MustConfig(n, (n-1)/3)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	for _, p := range cfg.All() {
		nodes[p] = benchSilent{}
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	store := suspicion.New(cfg, suspicion.Options{Forward: false})
	store.Bind(net.Env(1), nil)
	for i := 0; i < cfg.F; i++ {
		row := make([]uint64, cfg.N)
		row[(i+3)%cfg.N] = 1
		store.HandleUpdate(&wire.Update{Owner: ids.ProcessID(i + 1), Row: row, Sig: []byte{0}})
	}
	return store
}

// BenchmarkSuspectGraphBuild is the pre-cache baseline: a full O(n²)
// matrix scan per query (the former SuspectGraph implementation, kept
// as the rebuild SuspectGraphAt makes for an epoch that is not the
// current one). Contrast with BenchmarkSuspectGraphCached on the
// identical workload for the allocs/op win of the incremental cache.
func BenchmarkSuspectGraphBuild(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			store := benchWarmStore(n)
			store.ObserveEpoch(2) // the suspicions stay at epoch 1, now a past epoch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store.SuspectGraphAt(1)
			}
		})
	}
}

// BenchmarkSuspectGraphCached is the same workload as
// BenchmarkSuspectGraphBuild through the incremental cache: O(1) and
// allocation-free per query.
func BenchmarkSuspectGraphCached(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			store := benchWarmStore(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !store.SuspectGraph().HasEdge(1, 4) {
					b.Fatal("warm edge missing")
				}
			}
		})
	}
}

// BenchmarkSuspectGraphIncremental measures the selector-facing storm
// path: every iteration merges an UPDATE that raises one matrix cell
// (an epoch re-stamp of an existing suspicion, the common case) and
// re-reads the suspect graph, exactly what the onChange → updateQuorum
// wiring does per merged UPDATE.
func BenchmarkSuspectGraphIncremental(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			store := benchWarmStore(n)
			up := &wire.Update{Owner: 1, Row: make([]uint64, n), Sig: []byte{0}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				up.Row[3] = uint64(i + 2) // re-stamp edge {1,4}; cell changes, edge set does not
				store.HandleUpdate(up)
				if !store.SuspectGraph().HasEdge(1, 4) {
					b.Fatal("edge lost during storm")
				}
			}
		})
	}
}

func BenchmarkSimulatorEventLoop(b *testing.B) {
	cfg := ids.MustConfig(4, 1)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	for _, p := range cfg.All() {
		nodes[p] = benchSilent{}
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{Latency: sim.ConstantLatency(time.Millisecond)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Env(1).Send(2, &wire.Heartbeat{From: 1, Seq: uint64(i)})
		net.Run(net.Now() + 2*time.Millisecond)
	}
}

// --- helpers ---

type benchSilent struct{}

func (benchSilent) Init(runtime.Env)                    {}
func (benchSilent) Receive(ids.ProcessID, wire.Message) {}

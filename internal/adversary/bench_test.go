package adversary_test

import (
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"quorumselect/internal/adversary"
	"quorumselect/internal/sim"
)

// BenchmarkQuorumChurn is the repo benchmark's select-scale game as a
// `go test -bench` target, so the message path can be profiled
// (`make profile-churn`) without touching bench/: the Theorem 4
// adversary with PickRandom against Algorithm 1 alone, heartbeats off,
// one-way delay uniform in [1.5 ms, 2.5 ms], 50 injections per game.
// Nearly all of its work is UPDATE deliveries (the owner's n sends plus
// (n−1)(f+1) ring forwards per injected suspicion, and the epoch
// re-issues), so the custom metrics report cost per delivery.
func BenchmarkQuorumChurn(b *testing.B) {
	for _, size := range []struct{ n, f int }{{31, 10}, {64, 21}} {
		b.Run(fmt.Sprintf("n=%d", size.n), func(b *testing.B) {
			var deliveries uint64
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net, nodes := newCoreNetOn(size.n, size.f, sim.Options{
					Seed:    int64(i + 1),
					Latency: sim.UniformLatency(1500*time.Microsecond, 2500*time.Microsecond),
				})
				res := adversary.RunQuorumChurn(net, nodes, adversary.ChurnOptions{
					F: size.f, Picker: adversary.PickRandom, Seed: int64(i + 1), MaxInjections: 50,
				})
				if !res.Agreement || res.Injections != 50 {
					b.Fatalf("game %d: agreement=%v after %d injections", i, res.Agreement, res.Injections)
				}
				deliveries += uint64(net.Metrics().Counter("msg.delivered.total"))
				net.Close()
			}
			goruntime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(deliveries), "ns/delivery")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(deliveries), "allocs/delivery")
		})
	}
}

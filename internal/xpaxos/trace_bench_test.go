package xpaxos_test

import (
	"testing"
	"time"

	"quorumselect/internal/obs"
	"quorumselect/internal/wire"
)

// BenchmarkTracerSpan times one start/tag/end cycle on the bounded
// ring. What tracing costs a committed request end to end is the
// benchmark's xpaxos.trace_overhead_pct (bench/run.sh --trace 0|1).
func BenchmarkTracerSpan(b *testing.B) {
	tr := obs.NewBus(0)
	tr.SetEnabled(true)
	parent := tr.Start(1, "parent", wire.TraceContext{}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := tr.Start(2, "bench", parent.Context(), time.Duration(i))
		a.SetSlot(uint64(i))
		a.End(time.Duration(i + 1))
	}
}

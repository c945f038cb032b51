package fd

import (
	"fmt"
	"testing"
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// inertEnv is a fakeEnv whose timers never fire and are not kept, so a
// benchmark that issues expectations forever holds no growing queue.
type inertEnv struct{ *fakeEnv }

type inertTimer struct{}

func (inertTimer) Stop() bool { return true }

func (inertEnv) After(time.Duration, func()) runtime.Timer { return inertTimer{} }

// BenchmarkDetectorMatch measures one delivery of a matching COMMIT plus
// the expectation that replaces it, with 16 and with 4,096 COMMIT
// expectations outstanding against one peer — the shape of a replica
// whose log re-proposes thousands of slots to a crashed quorum member.
// It is one of the four `make bench-smoke` gates: the detector indexes
// expectations by key, so the 4,096 case costing more than twice the
// 16 case means per-message cost has started to grow with what is
// outstanding again.
func BenchmarkDetectorMatch(b *testing.B) {
	sizes := []int{16, 4096}
	perOp := make([]float64, len(sizes))
	for i, outstanding := range sizes {
		b.Run(fmt.Sprintf("outstanding=%d", outstanding), func(b *testing.B) {
			env := inertEnv{newFakeEnv(ids.MustConfig(4, 1))}
			d := New(DefaultOptions())
			d.Bind(env, func(ids.ProcessID, wire.Message) {}, nil)
			commits := make([]*wire.Commit, outstanding)
			for s := range commits {
				commits[s] = &wire.Commit{Replica: 2, View: 1, Slot: uint64(s)}
				d.Expect("xpaxos", 2, Key{wire.TypeCommit, 1, uint64(s)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				c := commits[n%outstanding]
				d.Receive(2, c)
				d.Expect("xpaxos", 2, Key{wire.TypeCommit, 1, c.Slot})
			}
			if d.PendingExpectations() != outstanding {
				b.Fatalf("%d expectations outstanding, want %d", d.PendingExpectations(), outstanding)
			}
			perOp[i] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	// A size that -bench filtered out never ran; nothing to compare.
	if perOp[0] == 0 || perOp[1] == 0 {
		return
	}
	b.Logf("detector match, 4096 over 16 outstanding: %.0f / %.0f ns/op = %.2fx (gate: <= 2.0x)",
		perOp[1], perOp[0], perOp[1]/perOp[0])
	if perOp[1] > 2*perOp[0] {
		b.Fatalf("a match with 4096 expectations outstanding costs %.0f ns, with 16 %.0f ns", perOp[1], perOp[0])
	}
}

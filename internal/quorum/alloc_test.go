package quorum

import (
	"testing"

	"quorumselect/internal/ids"
)

// TestSetPathsAllocateNothing: at n=64 the process-set operations and
// the quorum predicates built on them run without allocating — a
// ProcSet is a fixed-size value, so neither a set nor its iteration
// touches the heap.
func TestSetPathsAllocateNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are unreliable under -race")
	}
	const n = 64
	cfg := ids.MustConfig(n, 21)
	th := FromConfig(cfg).(Threshold)
	weights := make([]int, n)
	for i := range weights {
		weights[i] = i%3 + 1
	}
	w, err := NewWeighted(weights, 70)
	if err != nil {
		t.Fatal(err)
	}
	members := cfg.DefaultQuorum().Members()
	a := cfg.DefaultQuorum()
	b := ids.FirstN(n).Minus(ids.FirstN(n / 2))
	var sink ids.ProcSet
	var ok bool
	var count int
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"ProcSet.Add", func() { sink.Add(ids.ProcessID(n)) }},
		{"ProcSet.Union", func() { sink = a.Union(b) }},
		{"ProcSet.Intersect", func() { sink = a.Intersect(b) }},
		{"ProcSet.Minus", func() { sink = a.Minus(b) }},
		{"ProcSet.Contains", func() { ok = a.Contains(n / 2) }},
		{"ProcSet iteration", func() {
			for p := a.Next(ids.None); p != ids.None; p = a.Next(p) {
				count++
			}
		}},
		{"Threshold.IsQuorum", func() { ok = th.IsQuorum(members) }},
		{"Threshold.ContainsQuorum", func() { ok = th.ContainsQuorum(a) }},
		{"Threshold.Survives", func() { ok = th.Survives(b) }},
		{"Weighted.IsQuorum", func() { ok = w.IsQuorum(members) }},
		{"Weighted.ContainsQuorum", func() { ok = w.ContainsQuorum(a) }},
		{"Weighted.Survives", func() { ok = w.Survives(b) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s at n=%d: %v allocs, want 0", tc.name, n, allocs)
		}
	}
	_, _, _ = sink, ok, count
}

package load

import (
	"runtime"
	"testing"
	"time"
)

// TestRecorderTimelineMemory: a timeline bucket's histogram costs only
// the octaves its latencies touch, so an hour of default-width buckets
// stays small. A fixed-size histogram per bucket would hold ~30 KB of
// mostly-empty counters each, ~214 MB for the hour.
func TestRecorderTimelineMemory(t *testing.T) {
	const buckets = 7200 // one hour at DefaultBucketWidth
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	r := NewRecorder(0)
	for i := 0; i < buckets; i++ {
		at := time.Duration(i) * DefaultBucketWidth
		r.Sent(at, at)
		r.Complete(at, time.Duration(1+i%50)*time.Millisecond)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grown > 16<<20 {
		t.Errorf("recorder with %d timeline buckets grew the heap by %.1f MB, want ≤ 16 MB",
			buckets, float64(grown)/(1<<20))
	}
	s := r.Summarize(time.Hour, nil)
	if len(s.Timeline) != buckets || s.Completed != buckets {
		t.Fatalf("timeline %d buckets, %d completed; want %d each", len(s.Timeline), s.Completed, buckets)
	}
	if got := s.Timeline[buckets-1].P50Ms; got != 50 {
		t.Errorf("last bucket p50 = %v ms, want its one sample, 50 ms", got)
	}
}

package storage

import (
	"fmt"
	"testing"
)

// BenchmarkWALAppend measures raw framed-append throughput against the
// in-memory backend (no fsync in the loop: SyncEvery is huge), i.e.
// the CPU cost of the framing + segmentation path.
func BenchmarkWALAppend(b *testing.B) {
	back := NewMemBackend()
	s, err := Open(back, Options{SyncEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rec := make([]byte, 128)
	b.SetBytes(int64(len(rec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALGroupCommit measures the amortization group commit buys:
// one fsync per record at batch=1 versus one per 32 records at
// batch=32, against a real directory so the fsync cost is real; the
// custom fsync/op metric is the count being amortized.
func BenchmarkWALGroupCommit(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			back, err := NewDirBackend(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			s, err := Open(back, Options{SyncEvery: batch, SegmentSize: 8 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			rec := make([]byte, 128)
			b.SetBytes(int64(len(rec)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			fsyncs := float64(b.N+batch-1) / float64(batch)
			b.ReportMetric(fsyncs/float64(b.N), "fsync/op")
		})
	}
}

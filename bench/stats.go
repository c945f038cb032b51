package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// segment holds one segment's end-to-end values, keyed by metric name
// (every end-to-end metric but setup_s).
type segment map[string]float64

// segmentOf computes one segment from its completed-op latencies (which
// it sorts) and the marks at its two ends.
func segmentOf(latencies []time.Duration, from, to mark) segment {
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	n := float64(len(latencies))
	if n == 0 {
		return segment{}
	}
	return segment{
		"ops_per_s":     n / (to.wall - from.wall).Seconds(),
		"op_p50_ms":     ms(percentile(latencies, 50)),
		"op_p99_ms":     ms(percentile(latencies, 99)),
		"cpu_us_per_op": us(to.cpu-from.cpu) / n,
	}
}

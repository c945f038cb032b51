package metrics

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	for _, v := range []float64{5, 1, 3, 2, 4} {
		r.Observe("lat", v)
	}
	h, ok := r.Hist("lat")
	if !ok {
		t.Fatal("histogram missing")
	}
	if h.Count != 5 || h.MinSeen != 1 || h.MaxSeen != 5 {
		t.Errorf("stats: %+v", h)
	}
	if got := h.Mean(); got != 3 {
		t.Errorf("Mean = %v", got)
	}
	if got := h.Percentile(50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := h.Percentile(100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if _, ok := r.Hist("missing"); ok {
		t.Error("phantom histogram")
	}
}

// TestPercentileNearestRank pins the documented nearest-rank definition
// (rank ⌈p/100·N⌉) across the edge ranks.
func TestPercentileNearestRank(t *testing.T) {
	observe := func(vals ...float64) Histogram {
		r := NewRegistry()
		for _, v := range vals {
			r.Observe("h", v)
		}
		h, _ := r.Hist("h")
		return h
	}
	tests := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		{"p50 of four", []float64{1, 2, 3, 4}, 50, 2},
		{"p25 of four", []float64{1, 2, 3, 4}, 25, 1},
		{"p35 of four", []float64{1, 2, 3, 4}, 35, 2},
		{"p75 of four", []float64{1, 2, 3, 4}, 75, 3},
		{"p100 of four", []float64{1, 2, 3, 4}, 100, 4},
		{"p0 of four", []float64{1, 2, 3, 4}, 0, 1},
		{"p50 of five", []float64{5, 1, 3, 2, 4}, 50, 3},
		{"single sample p0", []float64{42}, 0, 42},
		{"single sample p50", []float64{42}, 50, 42},
		{"single sample p100", []float64{42}, 100, 42},
		{"p1 of four", []float64{1, 2, 3, 4}, 1, 1},
		{"p99 of four", []float64{1, 2, 3, 4}, 99, 4},
	}
	for _, tc := range tests {
		h := observe(tc.samples...)
		if got := h.Percentile(tc.p); got != tc.want {
			t.Errorf("%s: Percentile(%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram stats should be 0")
	}
}

// TestHistogramBoundedMemory observes over a million samples and checks
// that memory is the octaves the samples span, not their number, while
// the aggregates stay exact and identical runs agree.
func TestHistogramBoundedMemory(t *testing.T) {
	fill := func() Histogram {
		r := NewRegistry()
		for i := 0; i < 1_200_000; i++ {
			r.Observe("big", float64(i%1000))
		}
		h, _ := r.Hist("big")
		return h
	}
	h := fill()
	if h.Count != 1_200_000 {
		t.Fatalf("Count = %d", h.Count)
	}
	if len(h.octs) != 10 { // 1..999 spans the octaves [1,2) … [512,1024)
		t.Errorf("octaves held = %d, want 10", len(h.octs))
	}
	if h.MinSeen != 0 || h.MaxSeen != 999 {
		t.Errorf("min/max = %v/%v", h.MinSeen, h.MaxSeen)
	}
	// Every value 0..999 holds 1200 samples, so rank 600,000 is 499.
	if p50 := h.Percentile(50); math.Abs(p50-499) > 499.0/128 {
		t.Errorf("p50 = %v, want 499 to 1/128", p50)
	}
	h2 := fill()
	for _, p := range []float64{1, 25, 50, 75, 99, 99.9} {
		if h.Percentile(p) != h2.Percentile(p) {
			t.Fatalf("p%v differs between identical runs: %v vs %v", p, h.Percentile(p), h2.Percentile(p))
		}
	}
}

// TestPercentileExtremeRanks pins the tail ranks the open-loop load
// report leans on (p99.9 / p99.99) at small sample counts, where the
// nearest-rank definition either collapses to the maximum outright or
// resolves exactly one sample below it. The n samples are n−1 ones and
// a single two, so rank n reads 2 and any lower rank reads 1.
func TestPercentileExtremeRanks(t *testing.T) {
	fill := func(n int) Histogram {
		var h Histogram
		for i := 1; i < n; i++ {
			h.Observe(1)
		}
		h.Observe(2)
		return h
	}
	tests := []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 99.9, 2},
		{10, 99.9, 2},   // ceil(9.99) = 10: p999 is the max below 1000 samples
		{100, 99.9, 2},  // ceil(99.9) = 100: still the max
		{100, 99.99, 2}, //
		{999, 99.9, 2},  // ceil(998.001) = 999: still the max
		// float64(99.9)/100 is a hair above 0.999, so at exactly n=1000
		// the rank ceils to 1000 and p999 is STILL the max — the tail
		// only resolves below the max from n=1001 on.
		{1000, 99.9, 2},
		{1001, 99.9, 1},   // first count where p999 resolves below the max
		{1000, 99.99, 2},  // p9999 collapses to the max far beyond that
		{10001, 99.99, 1}, // and resolves once a rank below the max exists
	}
	for _, tc := range tests {
		h := fill(tc.n)
		if got := h.Percentile(tc.p); got != tc.want {
			t.Errorf("n=%d: Percentile(%v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

// nearestRank is the sort-based oracle: the sample at rank ⌈p/100·N⌉ of
// the sorted samples (the minimum at p = 0).
func nearestRank(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[min(rank, len(sorted))-1]
}

// checkAgainstOracle compares h with the oracle at each p: integers
// below 128 must be exact, everything else within 1/128.
func checkAgainstOracle(t *testing.T, h Histogram, samples []float64, ps []float64) {
	t.Helper()
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for _, p := range ps {
		got, exact := h.Percentile(p), nearestRank(sorted, p)
		if exact < exactInts && exact == math.Trunc(exact) {
			if got != exact {
				t.Errorf("p%v = %v, want the integer %v exactly", p, got, exact)
			}
		} else if math.Abs(got-exact) > exact/128 {
			t.Errorf("p%v = %v, exact %v: relative error %.5f > 1/128", p, got, exact, math.Abs(got-exact)/exact)
		}
	}
	if h.Percentile(0) != sorted[0] || h.Percentile(100) != sorted[len(sorted)-1] {
		t.Errorf("p0/p100 = %v/%v, want the exact %v/%v",
			h.Percentile(0), h.Percentile(100), sorted[0], sorted[len(sorted)-1])
	}
}

// TestHistogramMatchesSortOracle is the seeded differential test of the
// bucketed percentile against sorting every sample.
func TestHistogramMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var h Histogram
	var samples []float64
	observe := func(v float64) {
		h.Observe(v)
		samples = append(samples, v)
	}
	for i := 0; i < 100_000; i++ {
		observe(math.Pow(10, -9+21*rng.Float64())) // log-uniform over 1e-9 … 1e12
	}
	for i := 0; i <= 1000; i++ {
		observe(float64(i))
	}
	checkAgainstOracle(t, h, samples, []float64{50, 90, 99, 99.9})

	// Integers below 128 stay exact even when non-integers share their
	// buckets.
	h, samples = Histogram{}, nil
	for i := 0; i < 20_000; i++ {
		if v := rng.Float64() * 128; i%2 == 0 {
			observe(math.Trunc(v))
		} else {
			observe(v)
		}
	}
	var sweep []float64
	for p := 0.5; p < 100; p += 0.5 {
		sweep = append(sweep, p)
	}
	checkAgainstOracle(t, h, samples, sweep)
}

// TestHistogramAccuracy: nanosecond latencies spread over seven decades
// report percentiles within the 1/128 bucket error, down to p99.99.
func TestHistogramAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	samples := make([]float64, 0, 200_000)
	for i := 0; i < 200_000; i++ {
		v := math.Round(math.Pow(10, 3+7*rng.Float64())) // 1µs … 10s in ns
		h.Observe(v)
		samples = append(samples, v)
	}
	checkAgainstOracle(t, h, samples, []float64{50, 90, 99, 99.9, 99.99})
	if h.Count != 200_000 {
		t.Errorf("count %d", h.Count)
	}
}

// TestHistogramBucketRoundTrip: every bucket holds its samples and its
// own midpoint, keys are monotone in the value, and an integer ≥ 128
// lands in the bucket an integer log histogram with 64 sub-buckets per
// octave would give it: width 2^(bitlen−7), aligned to that width.
func TestHistogramBucketRoundTrip(t *testing.T) {
	for _, v := range []float64{1e-9, 0.3, 1, 127, 128, 129, 1000, 1 << 20, 1<<40 + 12345, 1 << 62, 1e12} {
		key := bucketKey(v)
		lo, hi := bucketBounds(key)
		if v < lo || v >= hi {
			t.Errorf("value %v outside its bucket [%v, %v)", v, lo, hi)
		}
		if mid := lo + (hi-lo)/2; bucketKey(mid) != key {
			t.Errorf("value %v: midpoint %v maps to another bucket", v, mid)
		}
	}
	for v := uint64(128); v < 1<<20; v += 97 {
		lo, hi := bucketBounds(bucketKey(float64(v)))
		width := uint64(1) << (bits.Len64(v) - 7)
		if uint64(hi-lo) != width || uint64(lo) != v&^(width-1) {
			t.Fatalf("integer %d: bucket [%v, %v), want width %d aligned", v, lo, hi, width)
		}
	}
	prev := uint64(0)
	for v := 1e-3; v < 1e9; v *= 1.01 {
		key := bucketKey(v)
		if key < prev {
			t.Fatalf("bucketKey not monotone at %v", v)
		}
		prev = key
	}
}

// TestHistogramEdges pins the empty, singleton and non-positive cases.
func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if h.Percentile(99) != 0 || h.Mean() != 0 || h.Count != 0 {
		t.Error("empty histogram not all-zero")
	}
	h.Observe(5e6)
	for _, p := range []float64{0, 50, 99.99, 100} {
		if got := h.Percentile(p); got != 5e6 {
			t.Errorf("single sample p%g = %v", p, got)
		}
	}
	h.Observe(-1) // shares the zero bucket, reported as 0
	if h.MinSeen != -1 || h.Percentile(0) != -1 || h.Percentile(50) != 0 {
		t.Errorf("non-positive sample: min %v p0 %v p50 %v", h.MinSeen, h.Percentile(0), h.Percentile(50))
	}
}

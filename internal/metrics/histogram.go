package metrics

import "math"

// subBits is the per-octave resolution: every power-of-two octave is
// split into 2^subBits equal-width buckets, so a bucket's midpoint lies
// within 1/2^(subBits+1) = 1/128 of every value in it.
const subBits = 6

// keyShift keeps a float64's exponent and its top subBits mantissa
// bits: for a positive sample v, math.Float64bits(v) >> keyShift is its
// bucket key, and keys order like the values they hold.
const keyShift = 52 - subBits

// exactInts bounds the integers reported exactly. Below it a bucket is
// at most 1 wide, so each integer starts a bucket of its own; the
// histogram also counts how many of that bucket's samples were the
// integer itself, and reports those as the integer.
const exactInts = 1 << (subBits + 1)

// octave holds the bucket counts of one power-of-two octave.
type octave [1 << subBits]uint64

// bucketKey is the bucket of a positive sample.
func bucketKey(v float64) uint64 { return math.Float64bits(v) >> keyShift }

// bucketBounds is the half-open value range [lo, hi) of bucket key.
func bucketBounds(key uint64) (lo, hi float64) {
	return math.Float64frombits(key << keyShift), math.Float64frombits((key + 1) << keyShift)
}

// Histogram accumulates scalar samples and exposes summary statistics.
// Every sample is counted: Count, Sum, MinSeen and MaxSeen are exact,
// and Percentile is the nearest-rank percentile over all samples to
// bucket precision — within 1/128 of the true value at any magnitude,
// exact for the extremes and for integers below 128. Samples ≤ 0 share
// one bucket that reports 0.
//
// Buckets are stored one octave at a time and allocated on first use,
// so the zero Histogram is ready to use, its memory grows with the
// octaves its samples span (512 B each), and Observe allocates nothing
// once its sample's octave exists. Two identical runs report identical
// percentiles. A Histogram is not safe for concurrent use; a HistHandle
// is.
type Histogram struct {
	Count   int64
	Sum     float64
	MinSeen float64
	MaxSeen float64

	zero uint64             // samples ≤ 0
	base int                // octave number of octs[0]
	octs []*octave          // octs[i] is octave base+i, nil until used
	ints *[exactInts]uint64 // ints[i]: samples equal to the integer i
}

// Observe records a sample.
func (h *Histogram) Observe(v float64) {
	if h.Count == 0 || v < h.MinSeen {
		h.MinSeen = v
	}
	if h.Count == 0 || v > h.MaxSeen {
		h.MaxSeen = v
	}
	h.Count++
	h.Sum += v
	if !(v > 0) {
		h.zero++
		return
	}
	key := bucketKey(v)
	h.octave(int(key >> subBits))[key&(1<<subBits-1)]++
	if v < exactInts && v == math.Trunc(v) {
		if h.ints == nil {
			h.ints = new([exactInts]uint64)
		}
		h.ints[int(v)]++
	}
}

// octave returns the counts of octave o, allocating them — and widening
// the octs window to reach o — on first use.
func (h *Histogram) octave(o int) *octave {
	i := o - h.base
	if i >= 0 && i < len(h.octs) && h.octs[i] != nil {
		return h.octs[i]
	}
	switch {
	case len(h.octs) == 0:
		h.octs, h.base, i = make([]*octave, 1), o, 0
	case i < 0:
		grown := make([]*octave, len(h.octs)-i)
		copy(grown[-i:], h.octs)
		h.octs, h.base, i = grown, o, 0
	case i >= len(h.octs):
		h.octs = append(h.octs, make([]*octave, i+1-len(h.octs))...)
	}
	h.octs[i] = new(octave)
	return h.octs[i]
}

// snapshot returns a deep copy of h.
func (h *Histogram) snapshot() Histogram {
	cp := *h
	cp.octs = make([]*octave, len(h.octs))
	for i, o := range h.octs {
		if o != nil {
			c := *o
			cp.octs[i] = &c
		}
	}
	if h.ints != nil {
		ints := *h.ints
		cp.ints = &ints
	}
	return cp
}

// Mean returns the arithmetic mean of the samples, or 0 with no samples.
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using the
// nearest-rank definition: the sample at rank ⌈p/100·N⌉ of the sorted
// samples, reported as its bucket's midpoint clamped to
// [MinSeen, MaxSeen]. p = 0 and p = 100 return the exact minimum and
// maximum. 0 with no samples.
func (h Histogram) Percentile(p float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if p <= 0 {
		return h.MinSeen
	}
	if p >= 100 {
		return h.MaxSeen
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.Count)))
	seen := h.zero
	if seen >= rank {
		return h.clamp(0)
	}
	for i, oct := range h.octs {
		if oct == nil {
			continue
		}
		for sub, c := range oct {
			if c == 0 {
				continue
			}
			key := uint64(h.base+i)<<subBits | uint64(sub)
			lo, hi := bucketBounds(key)
			if h.ints != nil && lo < exactInts && lo == math.Trunc(lo) {
				// The bucket's exact-integer samples are its smallest.
				n := h.ints[int(lo)]
				if seen += n; seen >= rank {
					return lo
				}
				c -= n
			}
			if seen += c; seen >= rank {
				return h.clamp(lo + (hi-lo)/2)
			}
		}
	}
	return h.MaxSeen
}

// clamp limits a bucket value to the exact extremes: the top bucket's
// midpoint can overshoot the true maximum, and symmetrically.
func (h Histogram) clamp(v float64) float64 {
	return math.Max(h.MinSeen, math.Min(v, h.MaxSeen))
}

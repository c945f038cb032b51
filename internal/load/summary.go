package load

import (
	"sort"
	"sync"
	"time"

	"quorumselect/internal/metrics"
)

// Summary is the machine-readable result of one load run — what
// cmd/loadgen prints as JSON and what benchmarks derive BENCH metrics
// from. All latencies are measured from each request's *intended* send
// time, so generator stalls and queueing show up as latency, never as
// silently thinner samples.
type Summary struct {
	Mode     string `json:"mode"`
	Topology string `json:"topology,omitempty"`
	Arrivals string `json:"arrivals"`
	Keys     string `json:"keys,omitempty"`
	Seed     int64  `json:"seed"`

	// DurationS is the measured run length in seconds (arrival window,
	// not including drain).
	DurationS float64 `json:"duration_s"`

	// Offered counts requests the arrival process scheduled; Sent the
	// ones actually issued; Shed the ones dropped at the backlog bound.
	// Completed+Failed+Unfinished = Sent.
	Offered    uint64 `json:"offered"`
	Sent       uint64 `json:"sent"`
	Shed       uint64 `json:"shed"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Unfinished uint64 `json:"unfinished"`
	// LateSends counts requests whose actual send lagged the intended
	// instant by more than the tolerance — the open-loop generator
	// admitting it could not keep the schedule (the latency numbers
	// still charge that lag to the request).
	LateSends uint64 `json:"late_sends"`

	OfferedRPS   float64 `json:"offered_rps"`
	GoodputRPS   float64 `json:"goodput_rps"`
	GoodputRatio float64 `json:"goodput_ratio"`

	LatencyMs Latencies    `json:"latency_ms"`
	Timeline  []BucketStat `json:"timeline,omitempty"`
	Fault     *FaultReport `json:"fault,omitempty"`
}

// Latencies summarizes the full-run latency distribution in
// milliseconds.
type Latencies struct {
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	P9999 float64 `json:"p9999"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
}

// BucketStat is one timeline bucket, keyed by intended send time, for
// spotting when the tail moved (fault injection, recovery, ramp knees).
type BucketStat struct {
	StartS    float64 `json:"start_s"`
	Sent      uint64  `json:"sent"`
	Completed uint64  `json:"completed"`
	Failed    uint64  `json:"failed"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// FaultReport quantifies an injected fault's latency cost: the
// pre-fault baseline, the worst post-fault bucket, and how long the
// tail took to return to (1.5×) baseline.
type FaultReport struct {
	Desc          string  `json:"desc"`
	AtS           float64 `json:"at_s"`
	BaselineP99Ms float64 `json:"baseline_p99_ms"`
	SpikeP99Ms    float64 `json:"spike_p99_ms"`
	RecoveryMs    float64 `json:"recovery_ms"`
	Recovered     bool    `json:"recovered"`
}

// lateTolerance is how far the actual send may lag the intended
// instant before the request counts as a late send.
const lateTolerance = time.Millisecond

// DefaultBucketWidth is the timeline resolution when the caller does
// not choose one.
const DefaultBucketWidth = 500 * time.Millisecond

// Recorder accumulates per-request accounting for one run. All
// timestamps are offsets from the run start (wall or virtual). Safe
// for concurrent use. Latency histograms hold nanoseconds and count
// every completion, so the tail percentiles are exact counts to 1/128
// bucket precision, never a sample of them.
type Recorder struct {
	mu      sync.Mutex
	bucketW time.Duration
	hist    metrics.Histogram
	buckets []*bucket

	offered, sent, shed, completed, failed, late uint64
}

type bucket struct {
	sent, completed, failed uint64
	hist                    metrics.Histogram
}

// NewRecorder returns a Recorder with the given timeline bucket width
// (≤ 0 selects DefaultBucketWidth).
func NewRecorder(bucketWidth time.Duration) *Recorder {
	if bucketWidth <= 0 {
		bucketWidth = DefaultBucketWidth
	}
	return &Recorder{bucketW: bucketWidth}
}

// bucketFor returns the timeline bucket covering the intended offset,
// growing the timeline as needed.
func (r *Recorder) bucketFor(intended time.Duration) *bucket {
	i := int(intended / r.bucketW)
	if i < 0 {
		i = 0
	}
	for len(r.buckets) <= i {
		r.buckets = append(r.buckets, new(bucket))
	}
	return r.buckets[i]
}

// Offered records one scheduled arrival.
func (r *Recorder) Offered() {
	r.mu.Lock()
	r.offered++
	r.mu.Unlock()
}

// Shed records an arrival dropped at the backlog bound (offered but
// never sent).
func (r *Recorder) Shed() {
	r.mu.Lock()
	r.shed++
	r.mu.Unlock()
}

// Sent records a request hitting the wire: intended is its scheduled
// send offset, actual when the generator really issued it.
func (r *Recorder) Sent(intended, actual time.Duration) {
	r.mu.Lock()
	r.sent++
	if actual-intended > lateTolerance {
		r.late++
	}
	r.bucketFor(intended).sent++
	r.mu.Unlock()
}

// Complete records a successful request: latency runs from the
// intended send instant to completion.
func (r *Recorder) Complete(intended, latency time.Duration) {
	r.mu.Lock()
	r.completed++
	r.hist.Observe(float64(latency))
	b := r.bucketFor(intended)
	b.completed++
	b.hist.Observe(float64(latency))
	r.mu.Unlock()
}

// Fail records a request that errored or timed out.
func (r *Recorder) Fail(intended time.Duration) {
	r.mu.Lock()
	r.failed++
	r.bucketFor(intended).failed++
	r.mu.Unlock()
}

// Completed returns the number of completions so far.
func (r *Recorder) Completed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.completed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pms is the p-th percentile of a nanosecond histogram in milliseconds.
func pms(h *metrics.Histogram, p float64) float64 { return ms(time.Duration(h.Percentile(p))) }

// Summarize freezes the recorder into a Summary. elapsed is the
// arrival window; fault, when non-nil, triggers the recovery analysis
// (Desc and AtS must be filled in by the caller).
func (r *Recorder) Summarize(elapsed time.Duration, fault *FaultReport) *Summary {
	r.mu.Lock()
	defer r.mu.Unlock()

	s := &Summary{
		DurationS:  elapsed.Seconds(),
		Offered:    r.offered,
		Sent:       r.sent,
		Shed:       r.shed,
		Completed:  r.completed,
		Failed:     r.failed,
		Unfinished: r.sent - r.completed - r.failed,
		LateSends:  r.late,
		LatencyMs: Latencies{
			P50:   pms(&r.hist, 50),
			P90:   pms(&r.hist, 90),
			P99:   pms(&r.hist, 99),
			P999:  pms(&r.hist, 99.9),
			P9999: pms(&r.hist, 99.99),
			Mean:  ms(time.Duration(r.hist.Mean())),
			Max:   ms(time.Duration(r.hist.MaxSeen)),
		},
	}
	if elapsed > 0 {
		s.OfferedRPS = float64(r.offered) / elapsed.Seconds()
		s.GoodputRPS = float64(r.completed) / elapsed.Seconds()
	}
	if r.offered > 0 {
		s.GoodputRatio = float64(r.completed) / float64(r.offered)
	}
	for i, b := range r.buckets {
		s.Timeline = append(s.Timeline, BucketStat{
			StartS:    (time.Duration(i) * r.bucketW).Seconds(),
			Sent:      b.sent,
			Completed: b.completed,
			Failed:    b.failed,
			P50Ms:     pms(&b.hist, 50),
			P99Ms:     pms(&b.hist, 99),
		})
	}
	if fault != nil {
		rep := *fault
		r.analyzeFault(&rep)
		s.Fault = &rep
	}
	return s
}

// analyzeFault fills in the recovery analysis: baseline p99 is the
// median over buckets that closed before the fault, the spike the
// worst bucket at/after it, and recovery the gap from the fault to the
// end of the first post-fault bucket whose p99 is back under 1.5×
// baseline (and stays sane: the bucket must have completions).
func (r *Recorder) analyzeFault(rep *FaultReport) {
	faultAt := time.Duration(rep.AtS * float64(time.Second))
	var pre []float64
	for i, b := range r.buckets {
		end := time.Duration(i+1) * r.bucketW
		if end <= faultAt && b.hist.Count > 0 {
			pre = append(pre, pms(&b.hist, 99))
		}
	}
	if len(pre) == 0 {
		return
	}
	sort.Float64s(pre)
	rep.BaselineP99Ms = pre[len(pre)/2]

	threshold := 1.5 * rep.BaselineP99Ms
	for i, b := range r.buckets {
		start := time.Duration(i) * r.bucketW
		end := start + r.bucketW
		if end <= faultAt || b.hist.Count == 0 {
			continue
		}
		p99 := pms(&b.hist, 99)
		if p99 > rep.SpikeP99Ms {
			rep.SpikeP99Ms = p99
		}
		if !rep.Recovered && p99 <= threshold {
			rep.Recovered = true
			rep.RecoveryMs = ms(end - faultAt)
		} else if rep.Recovered && p99 > threshold {
			// Relapsed: the tail came back up, so keep looking for the
			// point it settles for good.
			rep.Recovered = false
		}
	}
	if !rep.Recovered {
		rep.RecoveryMs = 0
	}
}

package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"quorumselect/internal/storage"
)

// loopback is a workload on the in-process TCP cluster. Injected
// message delay is zero: latency here is processor + fsync + batch
// timer, not network. Each of its five segments runs on a cluster of
// its own, built and warmed up from scratch (one set-up each).
type loopback struct {
	spec clusterSpec
	// rate > 0 is an open loop with Poisson arrivals at this many op/s;
	// otherwise a closed loop keeps `outstanding` ops in flight.
	rate        float64
	outstanding int
	// opsPerSecond × --seconds is the fixed number of measured ops,
	// split evenly over the segments.
	opsPerSecond float64
	// warmOps is each cluster's fixed warm-up prefix, sized so that
	// setup_s ≥ 1 s.
	warmOps int
}

func (w loopback) run(rc runConfig) (*report, error) {
	n := max(int(math.Round(w.opsPerSecond*rc.seconds/segments)), 1)
	warm := int(math.Ceil(float64(w.warmOps) * rc.warmScale()))
	rep := &report{}
	for k := 0; k < rc.calls(); k++ {
		if err := w.segment(rc, k, warm, n, rep); err != nil {
			return nil, fmt.Errorf("segment %d: %w", k, err)
		}
	}
	// Generator honesty: a segment whose generator could not keep its
	// schedule measured the generator, not the system. Such a segment is
	// never the best one; a run without a single honest segment is void.
	if honest := slices.Min(rep.lateRatios); honest > maxLateRatio {
		rep.violations = append(rep.violations, fmt.Sprintf("late sends are %.2f%% of arrivals even in the best segment (limit %g%%)", 100*honest, 100*maxLateRatio))
	}
	return rep, nil
}

// segment sets one cluster up (build + warm-up prefix), drives n
// measured ops through it, runs the correctness gate and adds the
// outcome to rep.
func (w loopback) segment(rc runConfig, k, warm, n int, rep *report) error {
	spec := w.spec
	spec.traced = rc.trace
	p := makePlan(rc.seed+int64(k), warm+n, spec.shards, w.rate)

	t0 := rc.setupStart(k)
	c, err := newCluster(spec)
	if err != nil {
		return err
	}
	defer c.close()
	d := newDriver(p, w.outstanding, c.submit)
	c.onExec = d.complete
	if _, ok := d.run(0, warm, nil); !ok {
		rs := c.registries()
		return fmt.Errorf("warm-up completed %d of %d ops (%v suspicions, %v view changes)",
			d.completed.Load(), warm, rs.counter("fd.suspicion.raised"), rs.counter("xpaxos.viewchange"))
	}
	rep.setups = append(rep.setups, time.Since(t0).Seconds())

	base := takeBase(c.registries())
	// A traced closed-loop segment traces its middle half only (off, on,
	// on, off): the two halves' throughput gives the tracing overhead
	// with linear drift cancelled.
	var cues []cue
	var toggles []mark
	if rc.trace && w.rate == 0 {
		c.setTracing(false)
		for _, t := range []struct {
			at int
			on bool
		}{{warm + n/4, true}, {warm + 3*n/4, false}} {
			cues = append(cues, cue{t.at, func() {
				c.setTracing(t.on)
				toggles = append(toggles, takeMark(d.start))
			}})
		}
	}
	from := takeMark(d.start)
	phaseStart, ok := d.run(warm, warm+n, cues)
	to := takeMark(d.start)
	if !ok {
		rep.violations = append(rep.violations, fmt.Sprintf("segment %d: cluster stalled, ops outstanding for 10 s", k))
	}

	// Latency runs from the intended send time (closed loop: actual).
	completedPerShard := make([]int, spec.shards)
	for i := 0; i < warm; i++ {
		completedPerShard[p.shard[i]]++
	}
	var lat []time.Duration
	late := 0
	for i := warm; i < warm+n; i++ {
		origin := d.sent[i]
		if p.intended != nil {
			origin = phaseStart + p.intended[i] - p.intended[warm]
		}
		done := time.Duration(d.done[i].Load())
		if done == 0 {
			rep.failed++
			rep.unfinished++
			continue
		}
		if d.sent[i]-origin > lateTolerance {
			late++
		}
		completedPerShard[p.shard[i]]++
		lat = append(lat, done-origin)
	}
	rep.attempted += n
	rep.segs = append(rep.segs, segmentOf(lat, from, to)) // sorts lat
	rep.lateRatios = append(rep.lateRatios, float64(late)/float64(n))

	if rc.trace {
		rep.merge(base.layers(c.registries(), n, from, to))
		rep.layers["load.late_send_ratio"] = float64(late) / float64(n)
		rep.layers["load.op_p999_ms"] = ms(percentile(lat, 99.9))
		rep.layers["load.gen_us_per_op"] = generatorAloneUs(p, w.outstanding)
		if spec.shards > 1 {
			counts := append([]int(nil), p.perShard...)
			sort.Ints(counts)
			rep.layers["fleet.shard_skew"] = float64(counts[len(counts)-1]) / float64(counts[0])
		}
		if len(toggles) == 2 && ok {
			traced := toggles[1].wall - toggles[0].wall
			on := float64(n/2) / traced.Seconds()
			off := float64(n-n/2) / (to.wall - from.wall - traced).Seconds()
			rep.layers["xpaxos.trace_overhead_pct"] = 100 * (off - on) / off
		}
		rep.merge(stageSelfTimes(c.spans()))
		calls, err := callLayers(c.cfg, c.auth)
		if err != nil {
			return err
		}
		rep.merge(calls)
		rep.liveHeap = append(rep.liveHeap, rep.layers["host.live_heap_bytes_per_op"])
	} else {
		rep.liveHeap = append(rep.liveHeap, (liveHeap()-base.heap)/float64(n))
	}
	for _, v := range c.check(completedPerShard) {
		rep.violations = append(rep.violations, fmt.Sprintf("segment %d: %s", k, v))
	}
	if rc.trace && spec.storage {
		// Reopen + replay one replica's WAL, as a restart would.
		c.closeHosts()
		recoverMs, err := timeRecovery(c.procDir(c.leaders[0]))
		if err != nil {
			return err
		}
		rep.layers["storage.recover_ms"] = recoverMs
	}
	return nil
}

// timeRecovery times storage.Open on a closed replica's WAL directory:
// newest snapshot loaded, WAL tail replayed.
func timeRecovery(dir string) (float64, error) {
	backend, err := storage.NewDirBackend(dir)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	store, err := storage.Open(backend, storage.Options{})
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(t0)
	return ms(elapsed), store.Close()
}

package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	qs "quorumselect"
	imetrics "quorumselect/internal/metrics"
	"quorumselect/internal/wire"
)

// perLayer names every per-layer metric, in BENCHMARK.json order. A
// traced run prints all of them; a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{name: "load.late_send_ratio", unit: "ratio"},
	{name: "load.gen_us_per_op", unit: "us"},
	{name: "load.op_p999_ms", unit: "ms"},
	{name: "transport.msgs_per_op", unit: "count"},
	{name: "transport.bytes_per_op", unit: "B"},
	{name: "transport.frames_per_flush", unit: "count"},
	{name: "transport.verify_async_per_op", unit: "count"},
	{name: "transport.verify_batched_per_op", unit: "count"},
	{name: "wire.encode_ns", unit: "ns"},
	{name: "wire.decode_ns", unit: "ns"},
	{name: "wire.encode_allocs", unit: "count"},
	{name: "crypto.sign_us.ed25519", unit: "us"},
	{name: "crypto.verify_us.ed25519", unit: "us"},
	{name: "crypto.sign_us.hmac", unit: "us"},
	{name: "crypto.verify_us.hmac", unit: "us"},
	{name: "crypto.cert_verify_us", unit: "us"},
	{name: "storage.fsyncs_per_op", unit: "count"},
	{name: "storage.fsync_us_p50", unit: "us"},
	{name: "storage.append_bytes_per_op", unit: "B"},
	{name: "storage.sync_batch_mean", unit: "count"},
	{name: "storage.recover_ms", unit: "ms"},
	{name: "host.batch_size_mean", unit: "count"},
	{name: "host.allocs_per_op", unit: "count"},
	{name: "host.live_heap_bytes_per_op", unit: "B"},
	{name: "host.gc_cpu_frac", unit: "ratio"},
	{name: "xpaxos.stage_us.ingress", unit: "us"},
	{name: "xpaxos.stage_us.propose", unit: "us"},
	{name: "xpaxos.stage_us.accept", unit: "us"},
	{name: "xpaxos.stage_us.quorum", unit: "us"},
	{name: "xpaxos.stage_us.execute", unit: "us"},
	{name: "xpaxos.stage_us.verify_wait", unit: "us"},
	{name: "xpaxos.stage_us.wal_sync", unit: "us"},
	{name: "xpaxos.slots_per_op", unit: "count"},
	{name: "xpaxos.view_changes", unit: "count"},
	{name: "xpaxos.viewchange_ms_p50", unit: "ms"},
	{name: "xpaxos.p50_over_delta", unit: "ratio"},
	{name: "xpaxos.trace_overhead_pct", unit: "%"},
	{name: "fleet.route_ns", unit: "ns"},
	{name: "fleet.msgs_per_op", unit: "count"},
	{name: "fleet.shard_skew", unit: "ratio"},
	{name: "fd.suspicions_raised", unit: "count"},
	{name: "fd.detection_ms_p50", unit: "ms"},
	{name: "suspicion.update_msgs_per_op", unit: "count"},
	{name: "suspicion.merge_ns", unit: "ns"},
	{name: "suspicion.graph_rebuilds", unit: "count"},
	{name: "core.quorums_per_injection", unit: "count"},
	{name: "core.max_per_epoch_over_bound", unit: "ratio"},
	{name: "graph.first_independent_set_us.n64", unit: "us"},
	{name: "graph.line_subgraph_us.n64", unit: "us"},
	{name: "quorum.is_quorum_ns", unit: "ns"},
	{name: "sim.events_per_s", unit: "1/s"},
	{name: "sim.events_per_op", unit: "count"},
}

// registries is the set of metric registries behind one workload: one
// per host on TCP, the single shared one on the simulator. Reads sum
// over them.
type registries []*qs.Registry

func (rs registries) counter(name string) float64 {
	var total int64
	for _, r := range rs {
		total += r.Counter(name)
	}
	return float64(total)
}

// sent sums the dir="sent" series of a transport counter labelled by
// message type (the registry cannot enumerate label values, the wire
// package can).
func (rs registries) sent(name string, kinds ...wire.Type) float64 {
	if len(kinds) == 0 {
		for k := wire.TypeHeartbeat; k <= wire.TypeShardEnvelope; k++ {
			kinds = append(kinds, k)
		}
	}
	var total int64
	for _, r := range rs {
		for _, k := range kinds {
			total += r.LabeledCounter(name,
				imetrics.L{Key: "type", Value: k.String()}, imetrics.L{Key: "dir", Value: "sent"})
		}
	}
	return float64(total)
}

func (rs registries) labeledSum(name string) float64 {
	var total int64
	for _, r := range rs {
		total += r.LabeledSum(name)
	}
	return float64(total)
}

// hist sums a histogram's exact sample count and sum.
func (rs registries) hist(name string) (count, sum float64) {
	for _, r := range rs {
		if h, ok := r.Hist(name); ok {
			count += float64(h.Count)
			sum += h.Sum
		}
	}
	return count, sum
}

// p50 is the median of a histogram on the first registry that has
// samples (on TCP: the lowest-numbered host, the shard-0 leader).
func (rs registries) p50(name string) float64 {
	for _, r := range rs {
		if h, ok := r.Hist(name); ok && h.Count > 0 {
			return h.Percentile(50)
		}
	}
	return 0
}

// histNames are the histograms layerBase snapshots (the registry can
// list its counters, not its histograms), so that the per-op numbers
// cover the measured phase only, not the warm-up.
var histNames = []string{"transport.writev.frames", "storage.fsync.batch_size", "host.ingress.batch_size"}

// layerBase is the state of every outside-observable source at the end
// of warm-up; layers() reports deltas against it.
type layerBase struct {
	heap     float64
	mallocs  uint64
	gcCPU    float64
	counters map[string]float64
	hists    map[string][2]float64
	bytes    float64
	updates  float64
	fleet    float64
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func takeBase(rs registries) *layerBase {
	b := &layerBase{
		heap:     liveHeap(),
		gcCPU:    gcCPUSeconds(),
		counters: make(map[string]float64),
		hists:    make(map[string][2]float64),
		bytes:    rs.sent("transport.bytes.total"),
		updates:  rs.sent("transport.messages.total", wire.TypeUpdate),
		fleet:    rs.labeledSum("fleet.shard.sent"),
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.mallocs = m.Mallocs
	for _, r := range rs {
		for _, c := range r.Counters() {
			b.counters[c.Name] += float64(c.Value)
		}
	}
	for _, name := range histNames {
		count, sum := rs.hist(name)
		b.hists[name] = [2]float64{count, sum}
	}
	return b
}

// liveHeap is HeapAlloc after a forced GC.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// layers derives the registry- and runtime-sourced per-layer metrics
// of the measured phase: counter deltas ÷ ops. from/to are the marks
// at its two ends.
func (b *layerBase) layers(rs registries, ops int, from, to mark) map[string]float64 {
	n := float64(ops)
	delta := func(name string) float64 { return rs.counter(name) - b.counters[name] }
	histMean := func(name string) float64 {
		count, sum := rs.hist(name)
		count, sum = count-b.hists[name][0], sum-b.hists[name][1]
		if count == 0 {
			return 0
		}
		return sum / count
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out := map[string]float64{
		"transport.msgs_per_op":           delta("transport.sent") / n,
		"transport.bytes_per_op":          (rs.sent("transport.bytes.total") - b.bytes) / n,
		"transport.frames_per_flush":      histMean("transport.writev.frames"),
		"transport.verify_async_per_op":   delta("transport.verify.async") / n,
		"transport.verify_batched_per_op": delta("transport.verify.batched") / n,
		"storage.fsyncs_per_op":           delta("storage.fsyncs") / n,
		"storage.fsync_us_p50":            rs.p50("storage.fsync.latency.seconds") * 1e6,
		"storage.append_bytes_per_op":     delta("storage.wal.append_bytes") / n,
		"storage.sync_batch_mean":         histMean("storage.fsync.batch_size"),
		"host.batch_size_mean":            histMean("host.ingress.batch_size"),
		"host.allocs_per_op":              float64(m.Mallocs-b.mallocs) / n,
		"host.gc_cpu_frac":                (gcCPUSeconds() - b.gcCPU) / (to.cpu - from.cpu).Seconds(),
		"xpaxos.slots_per_op":             delta("xpaxos.prepare.sent") / n,
		"xpaxos.view_changes":             rs.counter("xpaxos.viewchange"),
		"xpaxos.viewchange_ms_p50":        rs.p50("xpaxos.viewchange.duration.seconds") * 1e3,
		"fleet.msgs_per_op":               (rs.labeledSum("fleet.shard.sent") - b.fleet) / n,
		"fd.suspicions_raised":            rs.counter("fd.suspicion.raised"),
		"fd.detection_ms_p50":             rs.p50("fd.detection.latency.seconds") * 1e3,
		"suspicion.graph_rebuilds":        rs.counter("suspicion.graph.rebuilds"),
		"suspicion.update_msgs_per_op":    (rs.sent("transport.messages.total", wire.TypeUpdate) - b.updates + delta("msg.sent.UPDATE")) / n,
	}
	out["host.live_heap_bytes_per_op"] = (liveHeap() - b.heap) / n
	return out
}

// stageNames maps the tracer's commit-path span names to metric names.
var stageNames = map[string]string{
	"ingress": "xpaxos.stage_us.ingress", "propose": "xpaxos.stage_us.propose",
	"accept": "xpaxos.stage_us.accept", "quorum": "xpaxos.stage_us.quorum",
	"execute": "xpaxos.stage_us.execute", "verify.wait": "xpaxos.stage_us.verify_wait",
	"wal.sync": "xpaxos.stage_us.wal_sync",
}

// stageSelfTimes reports, for each commit-path stage, the mean span
// self time per slot on the slot's leader: a span's duration minus the
// part its child spans on the same host cover. A span is on its slot's
// leader when its node is the node that rooted the trace (span IDs are
// node<<40|seq, and a trace is named after its root span). Each host
// stamps spans with its own clock, so only same-host spans compare.
func stageSelfTimes(spans []qs.TraceSpan) map[string]float64 {
	children := make(map[uint64][]qs.TraceSpan)
	slots := 0
	for _, s := range spans {
		if uint64(s.Node) != s.Trace>>40 {
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
		if s.Name == "propose" {
			slots++
		}
	}
	if slots == 0 {
		return nil
	}
	total := make(map[string]time.Duration)
	for _, group := range children {
		for _, s := range group {
			if _, ok := stageNames[s.Name]; !ok {
				continue
			}
			total[s.Name] += s.Dur - covered(s, children[s.ID])
		}
	}
	out := make(map[string]float64, len(stageNames))
	for name, metric := range stageNames {
		out[metric] = us(total[name]) / float64(slots)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent qs.TraceSpan, kids []qs.TraceSpan) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum time.Duration
	cursor, end := parent.Start, parent.Start+parent.Dur
	for _, k := range kids {
		from, to := max(k.Start, cursor), min(k.Start+k.Dur, end)
		if to > from {
			sum += to - from
			cursor = to
		}
	}
	return sum
}

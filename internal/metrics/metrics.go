// Package metrics provides the lightweight counters, gauges and
// histograms the experiment harness and the live deployment use to
// account messages, quorum changes, epochs and per-phase latencies.
// Registries are plain in-memory structures, safe for concurrent use so
// the TCP deployment can share one across goroutines; the simulator is
// single-threaded per run and shares one registry across all simulated
// processes.
//
// Beyond plain named counters, the registry supports:
//
//   - gauges (Set/Add semantics, optionally labeled),
//   - labeled counters (e.g. messages_total{type="commit",dir="sent"}),
//   - histograms that count every sample in log-spaced buckets:
//     count/sum/min/max are exact and percentiles are within 1/128 of
//     the true value at any magnitude (see Histogram),
//   - a Snapshot() of everything, and a Prometheus-text-format
//     exposition via WriteTo (see prometheus.go).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// L is one metric label (a key/value pair).
type L struct {
	Key, Value string
}

// canonLabels renders labels in canonical Prometheus form: sorted by
// key, values escaped, wrapped in braces. Empty input yields "".
func canonLabels(labels []L) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]L, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(SanitizeName(l.Key))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escaping rules
// for label values: backslash, double-quote and newline.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// liveFlag records that a series has been written since it was created
// or last Reset; readers skip series that have not, so resolving a
// handle that is never used leaves no trace.
type liveFlag struct{ atomic.Bool }

func (l *liveFlag) mark() {
	if !l.Load() {
		l.Store(true)
	}
}

// CounterHandle is one resolved counter series. Resolve it once (at a
// module's Init/Bind) with Registry.CounterHandle and call Add on the
// message path: an Add is one atomic add — no map lookup, no lock, no
// label formatting, no allocation. Safe for concurrent use.
type CounterHandle struct {
	v    atomic.Int64
	live liveFlag
}

// Add adds delta to the series.
func (c *CounterHandle) Add(delta int64) {
	c.v.Add(delta)
	c.live.mark()
}

func (c *CounterHandle) reset() {
	c.live.Store(false)
	c.v.Store(0)
}

// Inc adds one to the series.
func (c *CounterHandle) Inc() { c.Add(1) }

// GaugeHandle is one resolved gauge series; see CounterHandle.
type GaugeHandle struct {
	bits atomic.Uint64 // math.Float64bits of the value
	live liveFlag
}

// Set sets the series to v.
func (g *GaugeHandle) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
	g.live.mark()
}

// Add adds delta to the series.
func (g *GaugeHandle) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			break
		}
	}
	g.live.mark()
}

func (g *GaugeHandle) value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *GaugeHandle) reset() {
	g.live.Store(false)
	g.bits.Store(0)
}

// HistHandle is one resolved histogram; see CounterHandle. Observe
// takes the histogram's own lock (its buckets are not atomic), never
// the registry's.
type HistHandle struct {
	mu sync.Mutex
	h  Histogram
}

// Observe records a sample.
func (h *HistHandle) Observe(v float64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// snapshot returns a copy of the histogram; ok is false while it holds
// no samples.
func (h *HistHandle) snapshot() (Histogram, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.h.Count == 0 {
		return Histogram{}, false
	}
	return h.h.snapshot(), true
}

func (h *HistHandle) reset() {
	h.mu.Lock()
	h.h = Histogram{}
	h.mu.Unlock()
}

// Registry holds named counters, gauges and histograms. Every series
// lives behind a handle; the registry's lock guards only the maps from
// names to handles, which are consulted when a series is resolved or
// read, never when a resolved series is written. A series is visible
// to readers (Counters, Snapshot, WriteTo) from its first write, so
// resolving a handle that is never used leaves no trace.
type Registry struct {
	mu      sync.Mutex
	count   map[string]*CounterHandle
	labeled map[string]map[string]*CounterHandle // name → canonical labels → series
	gauges  map[string]map[string]*GaugeHandle
	hists   map[string]*HistHandle
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		count:   make(map[string]*CounterHandle),
		labeled: make(map[string]map[string]*CounterHandle),
		gauges:  make(map[string]map[string]*GaugeHandle),
		hists:   make(map[string]*HistHandle),
	}
}

// resolve returns m[key], creating the zero series on first use.
// Callers hold the registry lock.
func resolve[T any](m map[string]*T, key string) *T {
	v, ok := m[key]
	if !ok {
		v = new(T)
		m[key] = v
	}
	return v
}

// resolveIn is resolve one level down: the series `key` of family
// `name`.
func resolveIn[T any](families map[string]map[string]*T, name, key string) *T {
	series, ok := families[name]
	if !ok {
		series = make(map[string]*T)
		families[name] = series
	}
	return resolve(series, key)
}

// CounterHandle resolves the counter series with the given name and
// labels (order-insensitive), creating it on first use. Handles stay
// valid for the registry's lifetime, across Reset.
func (r *Registry) CounterHandle(name string, labels ...L) *CounterHandle {
	if len(labels) == 0 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return resolve(r.count, name)
	}
	return r.labeledHandle(name, canonLabels(labels))
}

func (r *Registry) labeledHandle(name, key string) *CounterHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return resolveIn(r.labeled, name, key)
}

// GaugeHandle resolves the gauge series with the given name and
// labels, creating it on first use.
func (r *Registry) GaugeHandle(name string, labels ...L) *GaugeHandle {
	key := canonLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return resolveIn(r.gauges, name, key)
}

// HistHandle resolves the named histogram, creating it on first use.
func (r *Registry) HistHandle(name string) *HistHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return resolve(r.hists, name)
}

// The name-keyed writers below resolve, then apply: the same series a
// handle feeds, at the price of a map lookup (and, with labels, a label
// string) per call. They are for cold paths; a per-message site holds a
// handle.

// Inc adds delta to the named counter.
func (r *Registry) Inc(name string, delta int64) { r.CounterHandle(name).Add(delta) }

// IncLabeled adds delta to the series of the named counter identified
// by the given labels (order-insensitive).
func (r *Registry) IncLabeled(name string, delta int64, labels ...L) {
	r.labeledHandle(name, canonLabels(labels)).Add(delta)
}

// SetGauge sets the named gauge series to v.
func (r *Registry) SetGauge(name string, v float64, labels ...L) {
	r.GaugeHandle(name, labels...).Set(v)
}

// AddGauge adds delta to the named gauge series.
func (r *Registry) AddGauge(name string, delta float64, labels ...L) {
	r.GaugeHandle(name, labels...).Add(delta)
}

// Observe records a sample in the named histogram.
func (r *Registry) Observe(name string, v float64) { r.HistHandle(name).Observe(v) }

// Counter returns the current value of the named counter (0 if unset).
func (r *Registry) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.count[name]; ok {
		return c.v.Load()
	}
	return 0
}

// LabeledCounter returns the value of one series of a labeled counter
// (0 if unset).
func (r *Registry) LabeledCounter(name string, labels ...L) int64 {
	key := canonLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.labeled[name][key]; ok {
		return c.v.Load()
	}
	return 0
}

// LabeledSum returns the sum over all series of a labeled counter.
func (r *Registry) LabeledSum(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, c := range r.labeled[name] {
		total += c.v.Load()
	}
	return total
}

// Gauge returns the value of the named gauge series (0 if unset).
func (r *Registry) Gauge(name string, labels ...L) float64 {
	key := canonLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name][key]; ok {
		return g.value()
	}
	return 0
}

// Hist returns a snapshot of the named histogram. The second return is
// false if no samples were recorded.
func (r *Registry) Hist(name string) (Histogram, bool) {
	r.mu.Lock()
	h, ok := r.hists[name]
	r.mu.Unlock()
	if !ok {
		return Histogram{}, false
	}
	return h.snapshot()
}

// Counters returns a sorted copy of all plain counters, for printing.
func (r *Registry) Counters() []NamedCount {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NamedCount, 0, len(r.count))
	for k, c := range r.count {
		if c.live.Load() {
			out = append(out, NamedCount{Name: k, Value: c.v.Load()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reset clears all counters, gauges and histograms. Series are zeroed
// in place, not dropped: a handle resolved before Reset keeps feeding
// the series readers see after it. The price is retention — every
// series ever resolved, including each label combination created through
// the name-keyed wrappers, stays in the maps (hidden from readers until
// written again) for the registry's lifetime. Label sets are bounded
// everywhere in this repo; a caller that mints unbounded label values
// between Resets should use a fresh registry per run instead.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.count {
		c.reset()
	}
	for _, series := range r.labeled {
		for _, c := range series {
			c.reset()
		}
	}
	for _, series := range r.gauges {
		for _, g := range series {
			g.reset()
		}
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// String renders the registry as one line per counter, sorted by name.
func (r *Registry) String() string {
	var b strings.Builder
	for _, c := range r.Counters() {
		fmt.Fprintf(&b, "%s=%d\n", c.Name, c.Value)
	}
	return b.String()
}

// NamedCount pairs a counter name with its value.
type NamedCount struct {
	Name  string
	Value int64
}

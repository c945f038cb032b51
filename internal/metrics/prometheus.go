package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Series is one exposed time series: a canonical label string (possibly
// empty) and its value.
type Series struct {
	Labels string // canonical form, e.g. `{dir="sent",type="commit"}`
	Value  float64
}

// Family is all series of one metric name.
type Family struct {
	Name   string // original (dotted) registry name
	Type   string // "counter" | "gauge" | "summary"
	Series []Series
	Hist   *Histogram // set for summaries
}

// Snapshot is a consistent copy of everything in the registry, sorted
// by metric name and, within a family, by label string.
type Snapshot struct {
	Families []Family
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()

	fams := make(map[string]*Family)
	get := func(name, typ string) *Family {
		f, ok := fams[name]
		if !ok {
			f = &Family{Name: name, Type: typ}
			fams[name] = f
		}
		return f
	}
	// Only series written since creation (or the last Reset) are
	// exposed: a handle resolved at Init and never used leaves no trace.
	for name, c := range r.count {
		if c.live.Load() {
			f := get(name, "counter")
			f.Series = append(f.Series, Series{Value: float64(c.v.Load())})
		}
	}
	for name, series := range r.labeled {
		for labels, c := range series {
			if c.live.Load() {
				f := get(name, "counter")
				f.Series = append(f.Series, Series{Labels: labels, Value: float64(c.v.Load())})
			}
		}
	}
	for name, series := range r.gauges {
		for labels, g := range series {
			if g.live.Load() {
				f := get(name, "gauge")
				f.Series = append(f.Series, Series{Labels: labels, Value: g.value()})
			}
		}
	}
	for name, h := range r.hists {
		if snap, ok := h.snapshot(); ok {
			get(name, "summary").Hist = &snap
		}
	}

	out := Snapshot{Families: make([]Family, 0, len(fams))}
	for _, f := range fams {
		sort.Slice(f.Series, func(i, j int) bool { return f.Series[i].Labels < f.Series[j].Labels })
		out.Families = append(out.Families, *f)
	}
	sort.Slice(out.Families, func(i, j int) bool { return out.Families[i].Name < out.Families[j].Name })
	return out
}

// SanitizeName maps a registry name to a legal Prometheus metric or
// label name: every character outside [a-zA-Z0-9_:] becomes '_', and a
// leading digit is prefixed with '_'.
func SanitizeName(name string) string {
	var b strings.Builder
	for i, r := range name {
		legal := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if legal {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// summaryQuantiles are the quantiles exposed for each histogram.
var summaryQuantiles = []float64{50, 90, 99}

var _ io.WriterTo = (*Registry)(nil)

// WriteTo writes the registry in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label
// string, label values escaped. Histograms are exposed as summaries
// with p50/p90/p99 quantiles plus _sum and _count. It implements
// io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	return r.Snapshot().WriteTo(w)
}

// WriteTo writes the snapshot in the Prometheus text exposition format.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	var written int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		written += int64(n)
		return err
	}
	for _, f := range s.Families {
		name := SanitizeName(f.Name)
		if err := emit("# TYPE %s %s\n", name, f.Type); err != nil {
			return written, err
		}
		if f.Type == "summary" {
			h := f.Hist
			for _, q := range summaryQuantiles {
				if err := emit("%s{quantile=%q} %s\n", name,
					strconv.FormatFloat(q/100, 'g', -1, 64), formatValue(h.Percentile(q))); err != nil {
					return written, err
				}
			}
			if err := emit("%s_sum %s\n", name, formatValue(h.Sum)); err != nil {
				return written, err
			}
			if err := emit("%s_count %d\n", name, h.Count); err != nil {
				return written, err
			}
			continue
		}
		for _, series := range f.Series {
			if err := emit("%s%s %s\n", name, series.Labels, formatValue(series.Value)); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

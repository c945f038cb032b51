package metrics

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCounters(t *testing.T) {
	r := NewRegistry()
	r.Inc("a", 1)
	r.Inc("a", 2)
	r.Inc("b", 5)
	if got := r.Counter("a"); got != 3 {
		t.Errorf("a = %d", got)
	}
	if got := r.Counter("missing"); got != 0 {
		t.Errorf("missing = %d", got)
	}
	counters := r.Counters()
	if len(counters) != 2 || counters[0].Name != "a" || counters[1].Name != "b" {
		t.Errorf("Counters = %v", counters)
	}
	if s := r.String(); !strings.Contains(s, "a=3") || !strings.Contains(s, "b=5") {
		t.Errorf("String = %q", s)
	}
	r.Reset()
	if r.Counter("a") != 0 {
		t.Error("Reset did not clear")
	}
}

func TestLabeledCounters(t *testing.T) {
	r := NewRegistry()
	r.IncLabeled("messages_total", 1, L{"type", "commit"}, L{"dir", "sent"})
	r.IncLabeled("messages_total", 2, L{"dir", "sent"}, L{"type", "commit"}) // order-insensitive
	r.IncLabeled("messages_total", 5, L{"type", "prepare"}, L{"dir", "sent"})
	if got := r.LabeledCounter("messages_total", L{"type", "commit"}, L{"dir", "sent"}); got != 3 {
		t.Errorf("commit series = %d, want 3", got)
	}
	if got := r.LabeledCounter("messages_total", L{"type", "prepare"}, L{"dir", "sent"}); got != 5 {
		t.Errorf("prepare series = %d, want 5", got)
	}
	if got := r.LabeledSum("messages_total"); got != 8 {
		t.Errorf("sum = %d, want 8", got)
	}
	if got := r.LabeledCounter("messages_total", L{"type", "missing"}); got != 0 {
		t.Errorf("missing series = %d", got)
	}
}

func TestGauges(t *testing.T) {
	r := NewRegistry()
	r.SetGauge("depth", 4)
	r.AddGauge("depth", -1)
	if got := r.Gauge("depth"); got != 3 {
		t.Errorf("depth = %v, want 3", got)
	}
	r.SetGauge("view", 7, L{"node", "p1"})
	r.SetGauge("view", 9, L{"node", "p2"})
	if got := r.Gauge("view", L{"node", "p2"}); got != 9 {
		t.Errorf("view{p2} = %v, want 9", got)
	}
	if got := r.Gauge("view"); got != 0 {
		t.Errorf("unlabeled view = %v, want 0", got)
	}
}

// TestPrometheusGolden compares the text exposition against the golden
// file: families sorted by name, series sorted by labels, label values
// escaped, histograms exposed as summaries.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Inc("msg.sent.total", 12)
	r.Inc("fd.detected", 1)
	r.IncLabeled("transport.messages.total", 7, L{"type", "commit"}, L{"dir", "sent"})
	r.IncLabeled("transport.messages.total", 3, L{"type", "prepare"}, L{"dir", "sent"})
	r.IncLabeled("weird.labels", 1, L{"path", `C:\tmp`}, L{"quote", `say "hi"`})
	r.SetGauge("xpaxos.view", 4, L{"node", "p1"})
	r.SetGauge("suspicion.store.size", 9, L{"node", "p1"})
	for i := 1; i <= 100; i++ {
		r.Observe("xpaxos.commit.latency.seconds", float64(i)/1000)
	}

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	goldenPath := filepath.Join("testdata", "exposition.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestSanitizeName(t *testing.T) {
	tests := map[string]string{
		"msg.sent.total":  "msg_sent_total",
		"already_legal:x": "already_legal:x",
		"1starts-digit":   "_1starts_digit",
		"sp ace":          "sp_ace",
	}
	for in, want := range tests {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRegistryConcurrency hammers every registry surface from multiple
// goroutines; run under -race it doubles as the data-race check.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Inc("x", 1)
				r.Observe("h", float64(i))
				r.IncLabeled("labeled", 1, L{"g", "a"})
				r.SetGauge("gauge", float64(i), L{"g", "a"})
				r.AddGauge("adds", 1)
				if i%100 == 0 {
					var buf bytes.Buffer
					if _, err := r.WriteTo(&buf); err != nil {
						t.Errorf("WriteTo: %v", err)
					}
					_ = r.Snapshot()
					_, _ = r.Hist("h")
					_ = r.Counters()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("x"); got != 8000 {
		t.Errorf("x = %d, want 8000", got)
	}
	if got := r.LabeledCounter("labeled", L{"g", "a"}); got != 8000 {
		t.Errorf("labeled = %d, want 8000", got)
	}
	if got := r.Gauge("adds"); got != 8000 {
		t.Errorf("adds = %v, want 8000", got)
	}
	h, _ := r.Hist("h")
	if h.Count != 8000 {
		t.Errorf("h.Count = %d", h.Count)
	}
}

// TestHandleWritesAllocateNothing is the allocation budget of a
// per-message metric site: a write through a resolved handle costs no
// allocation, whatever the series' labels. A histogram allocates its
// buckets once per octave, so its octave is warmed first.
func TestHandleWritesAllocateNothing(t *testing.T) {
	r := NewRegistry()
	c := r.CounterHandle("transport.messages.total", L{"type", "UPDATE"}, L{"dir", "sent"})
	g := r.GaugeHandle("fd.expectations.pending", L{"node", "p17"})
	h := r.HistHandle("suspicion.merge.changed.cells")
	h.Observe(1)
	for name, write := range map[string]func(){
		"counter Inc":  func() { c.Inc() },
		"counter Add":  func() { c.Add(530) },
		"gauge Set":    func() { g.Set(3) },
		"gauge Add":    func() { g.Add(-1) },
		"hist Observe": func() { h.Observe(1) },
	} {
		if allocs := testing.AllocsPerRun(1000, write); allocs != 0 {
			t.Errorf("%s = %v allocs, want 0", name, allocs)
		}
	}
}

// TestHandleAndNameShareOneSeries: there is one store. A handle and the
// name-keyed call address the same series, so their writes sum and
// either side's reader sees both.
func TestHandleAndNameShareOneSeries(t *testing.T) {
	r := NewRegistry()
	plain := r.CounterHandle("msg.sent.total")
	plain.Add(2)
	r.Inc("msg.sent.total", 3)
	if got := r.Counter("msg.sent.total"); got != 5 {
		t.Errorf("plain counter = %d, want 5", got)
	}

	labeled := r.CounterHandle("transport.bytes.total", L{"type", "COMMIT"}, L{"dir", "recv"})
	labeled.Add(100)
	r.IncLabeled("transport.bytes.total", 11, L{"dir", "recv"}, L{"type", "COMMIT"}) // label order is free
	if got := r.LabeledCounter("transport.bytes.total", L{"type", "COMMIT"}, L{"dir", "recv"}); got != 111 {
		t.Errorf("labeled counter = %d, want 111", got)
	}
	if got := r.LabeledSum("transport.bytes.total"); got != 111 {
		t.Errorf("labeled sum = %d, want 111", got)
	}
	if r.CounterHandle("transport.bytes.total", L{"dir", "recv"}, L{"type", "COMMIT"}) != labeled {
		t.Error("resolving the same series twice gave two handles")
	}

	g := r.GaugeHandle("xpaxos.view", L{"node", "p1"})
	g.Set(4)
	r.AddGauge("xpaxos.view", 2, L{"node", "p1"})
	if got := r.Gauge("xpaxos.view", L{"node", "p1"}); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}

	h := r.HistHandle("lat")
	h.Observe(1)
	r.Observe("lat", 3)
	if snap, ok := r.Hist("lat"); !ok || snap.Count != 2 || snap.Sum != 4 {
		t.Errorf("histogram = %+v (ok=%v), want 2 samples summing to 4", snap, ok)
	}
}

// TestResolvedButUnwrittenSeriesAreInvisible: modules resolve their
// handles at Init whether or not the run ever uses them, so resolution
// alone must leave no trace in any reader — otherwise every seeded
// metrics dump would grow a block of zeros.
func TestResolvedButUnwrittenSeriesAreInvisible(t *testing.T) {
	r := NewRegistry()
	r.CounterHandle("never.counted")
	r.CounterHandle("never.labeled", L{"k", "v"})
	r.GaugeHandle("never.set", L{"node", "p1"})
	r.HistHandle("never.observed")
	if cs := r.Counters(); len(cs) != 0 {
		t.Errorf("Counters() = %v, want none", cs)
	}
	if _, ok := r.Hist("never.observed"); ok {
		t.Error("Hist reports an empty histogram as present")
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("exposition of untouched handles:\n%s", buf.String())
	}
	// A zero-valued write still creates the series, as Inc(name, 0)
	// always has.
	r.Inc("counted.zero", 0)
	if cs := r.Counters(); len(cs) != 1 || cs[0].Name != "counted.zero" {
		t.Errorf("Counters() after Inc(…, 0) = %v", cs)
	}
}

// TestResetZeroesLiveHandles: Reset must not orphan handles. A handle
// resolved before Reset feeds the very series readers see after it.
func TestResetZeroesLiveHandles(t *testing.T) {
	r := NewRegistry()
	c := r.CounterHandle("c")
	lc := r.CounterHandle("lc", L{"k", "v"})
	g := r.GaugeHandle("g", L{"node", "p1"})
	h := r.HistHandle("h")
	c.Add(7)
	lc.Add(7)
	g.Set(7)
	h.Observe(7)

	r.Reset()
	if r.Counter("c") != 0 || r.LabeledSum("lc") != 0 || r.Gauge("g", L{"node", "p1"}) != 0 {
		t.Error("Reset left values behind")
	}
	if _, ok := r.Hist("h"); ok {
		t.Error("Reset left histogram samples behind")
	}
	if cs := r.Counters(); len(cs) != 0 {
		t.Errorf("Counters() after Reset = %v, want none", cs)
	}

	c.Inc()
	lc.Inc()
	g.Add(2)
	h.Observe(5)
	if got := r.Counter("c"); got != 1 {
		t.Errorf("counter after Reset+Inc = %d, want 1 (handle orphaned?)", got)
	}
	if got := r.LabeledCounter("lc", L{"k", "v"}); got != 1 {
		t.Errorf("labeled counter after Reset+Inc = %d, want 1", got)
	}
	if got := r.Gauge("g", L{"node", "p1"}); got != 2 {
		t.Errorf("gauge after Reset+Add = %v, want 2", got)
	}
	if snap, ok := r.Hist("h"); !ok || snap.Count != 1 || snap.MinSeen != 5 {
		t.Errorf("histogram after Reset+Observe = %+v (ok=%v)", snap, ok)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"c 1\n", `lc{k="v"} 1`, `g{node="p1"} 2`, "h_count 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition after Reset lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestHandleStorm hammers resolved handles from many goroutines while
// others read, expose, re-resolve and Reset. Under -race it is the
// data-race check of the handle store; the final tally (after the last
// Reset, with the resetter stopped) checks no write was lost.
func TestHandleStorm(t *testing.T) {
	r := NewRegistry()
	c := r.CounterHandle("storm.c", L{"type", "UPDATE"})
	g := r.GaugeHandle("storm.g", L{"node", "p1"})
	h := r.HistHandle("storm.h")

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if _, err := r.WriteTo(&buf); err != nil {
				t.Errorf("WriteTo: %v", err)
			}
			_ = r.Snapshot()
			_ = r.Counters()
			_ = r.LabeledSum("storm.c")
			if r.CounterHandle("storm.c", L{"type", "UPDATE"}) != c {
				t.Error("series re-resolved to a different handle mid-storm")
			}
			r.Reset()
		}
	}()
	write := func(rounds int) {
		var writers sync.WaitGroup
		for w := 0; w < 8; w++ {
			writers.Add(1)
			go func() {
				defer writers.Done()
				for i := 0; i < rounds; i++ {
					c.Inc()
					g.Add(1)
					h.Observe(float64(i))
					r.Inc("storm.named", 1)
				}
			}()
		}
		writers.Wait()
	}
	write(2000)
	close(stop)
	readers.Wait()

	r.Reset()
	write(500)
	if got := r.LabeledCounter("storm.c", L{"type", "UPDATE"}); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
	if got := r.Gauge("storm.g", L{"node", "p1"}); got != 4000 {
		t.Errorf("gauge = %v, want 4000", got)
	}
	if snap, _ := r.Hist("storm.h"); snap.Count != 4000 {
		t.Errorf("histogram count = %d, want 4000", snap.Count)
	}
	if got := r.Counter("storm.named"); got != 4000 {
		t.Errorf("name-keyed counter = %d, want 4000", got)
	}
}

package sim

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/wire"
)

const geoSpec = `
name test3
region us-east 1 2
region eu-west 3
region ap-south
local 500us jitter 100us
link us-east eu-west 40ms 42ms jitter 2ms
link us-east ap-south 90ms jitter 5ms
link eu-west ap-south 70ms
partition us-east ap-south 10s 15s
`

func mustTopo(t *testing.T, spec string, n int) *BoundTopology {
	t.Helper()
	topo, err := ParseTopology(spec)
	if err != nil {
		t.Fatalf("ParseTopology: %v", err)
	}
	b, err := topo.Bind(n)
	if err != nil {
		t.Fatalf("Bind(%d): %v", n, err)
	}
	return b
}

func TestTopologyParseAndBind(t *testing.T) {
	b := mustTopo(t, geoSpec, 4)
	want := map[ids.ProcessID]string{1: "us-east", 2: "us-east", 3: "eu-west", 4: "ap-south"}
	for p, r := range want {
		if got := b.RegionOf(p); got != r {
			t.Errorf("RegionOf(%s) = %q, want %q", p, got, r)
		}
	}
	if b.Name() != "test3" {
		t.Errorf("Name = %q", b.Name())
	}
	if got := b.MaxOneWay(); got != 95*time.Millisecond {
		t.Errorf("MaxOneWay = %s, want 95ms", got)
	}
}

// TestTopologyRoundRobinBind: processes not pinned by the spec spread
// round-robin across the regions in declaration order.
func TestTopologyRoundRobinBind(t *testing.T) {
	spec := `
region a
region b
local 1ms
link a b 10ms
`
	b := mustTopo(t, spec, 5)
	counts := map[string]int{}
	for i := 1; i <= 5; i++ {
		counts[b.RegionOf(ids.ProcessID(i))]++
	}
	if counts["a"] != 3 || counts["b"] != 2 {
		t.Errorf("round-robin split = %v, want a:3 b:2", counts)
	}
}

// TestTopologyLatencyModel pins the directed matrix: intra-region
// sends take the local link, cross-region sends the (asymmetric)
// region-pair link, and jitter stays within its declared bound.
func TestTopologyLatencyModel(t *testing.T) {
	b := mustTopo(t, geoSpec, 4)
	model := b.LatencyModel()
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		from, to ids.ProcessID
		min, max time.Duration
	}{
		{1, 2, 500 * time.Microsecond, 600 * time.Microsecond}, // local + jitter
		{1, 3, 40 * time.Millisecond, 42 * time.Millisecond},   // us-east → eu-west
		{3, 1, 42 * time.Millisecond, 44 * time.Millisecond},   // asymmetric reverse
		{1, 4, 90 * time.Millisecond, 95 * time.Millisecond},
		{3, 4, 70 * time.Millisecond, 70 * time.Millisecond}, // no jitter declared
	}
	for _, c := range cases {
		for i := 0; i < 200; i++ {
			d := model(c.from, c.to, rng)
			if d < c.min || d > c.max {
				t.Fatalf("latency %s→%s = %s outside [%s,%s]", c.from, c.to, d, c.min, c.max)
			}
		}
	}
}

// TestTopologyLatencyDeterministic: the model is a pure function of
// the rng stream, so two seeded draws agree draw for draw.
func TestTopologyLatencyDeterministic(t *testing.T) {
	b := mustTopo(t, geoSpec, 4)
	m1, m2 := b.LatencyModel(), b.LatencyModel()
	r1, r2 := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		if d1, d2 := m1(1, 4, r1), m2(1, 4, r2); d1 != d2 {
			t.Fatalf("draw %d: %s vs %s", i, d1, d2)
		}
	}
}

// TestTopologyLinkFilter: a partial partition drops cross-pair
// messages only inside its window, never intra-region or third-party
// traffic.
func TestTopologyLinkFilter(t *testing.T) {
	b := mustTopo(t, geoSpec, 4)
	f := b.LinkFilter()
	if f == nil {
		t.Fatal("LinkFilter = nil with a declared partition")
	}
	msg := &wire.Heartbeat{From: 1}
	during, before := 12*time.Second, 9*time.Second
	if !f.Filter(1, 4, msg, during).Drop {
		t.Error("us-east→ap-south not dropped during partition")
	}
	if !f.Filter(4, 1, msg, during).Drop {
		t.Error("partition is bidirectional; reverse not dropped")
	}
	if f.Filter(1, 4, msg, before).Drop {
		t.Error("dropped before window opened")
	}
	if f.Filter(1, 4, msg, 15*time.Second).Drop {
		t.Error("window is half-open; dropped at close instant")
	}
	if f.Filter(1, 3, msg, during).Drop || f.Filter(1, 2, msg, during).Drop {
		t.Error("third-party or intra-region traffic dropped")
	}

	noParts := mustTopo(t, strings.Replace(geoSpec, "partition us-east ap-south 10s 15s", "", 1), 4)
	if noParts.LinkFilter() != nil {
		t.Error("LinkFilter != nil without partitions")
	}
}

// TestShippedTopologiesLoad keeps the spec files the CLIs document
// (cmd/loadgen -topology, cmd/chaos -topology) inside the grammar.
func TestShippedTopologiesLoad(t *testing.T) {
	for name, n := range map[string]int{"lan": 4, "geo3": 4, "geo5": 5} {
		topo, err := LoadTopology("../../examples/topologies/" + name + ".topo")
		if err != nil {
			t.Fatal(err)
		}
		b, err := topo.Bind(n)
		if err != nil {
			t.Fatalf("%s: Bind(%d): %v", name, n, err)
		}
		if b.MaxOneWay() <= 0 {
			t.Errorf("%s: MaxOneWay = %v", name, b.MaxOneWay())
		}
	}
}

func TestTopologyParseErrors(t *testing.T) {
	bad := []string{
		"",                                     // no regions
		"region a\nregion b\nlocal 1ms",        // missing a↔b link
		"region a\nregion a\nlink a a 1ms",     // duplicate region
		"region a 1\nregion b 1\nlink a b 1ms", // process in two regions
		"region a\nregion b\nlink a b 1ms\nlink a b 2ms",        // duplicate link
		"region a\nregion b\nlink a c 1ms",                      // unknown region
		"region a\nregion b\nlink a b -1ms",                     // negative latency
		"region a\nregion b\nlink a b 1ms\npartition a b 5s 2s", // inverted window
		"garbage directive",
	}
	for _, spec := range bad {
		if _, err := ParseTopology(spec); err == nil {
			t.Errorf("ParseTopology accepted bad spec %q", spec)
		}
	}
	// Pinning a process outside 1..n fails at bind, not parse.
	topo, err := ParseTopology("region a 9\nregion b\nlink a b 1ms")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := topo.Bind(4); err == nil {
		t.Error("Bind accepted process 9 in an n=4 cluster")
	}
}

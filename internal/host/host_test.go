package host_test

import (
	"testing"
	"time"

	"quorumselect/internal/fd"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

// envNode is a minimal runtime.Node that just captures its Env, giving
// ingress tests a real simulated environment (timers included).
type envNode struct{ env runtime.Env }

func (n *envNode) Init(env runtime.Env)                { n.env = env }
func (n *envNode) Receive(ids.ProcessID, wire.Message) {}

// silent fills the remaining processes of a simulated config.
type silent struct{}

func (silent) Init(runtime.Env)                    {}
func (silent) Receive(ids.ProcessID, wire.Message) {}

func newEnv(t *testing.T) (*sim.Network, runtime.Env) {
	t.Helper()
	cfg := ids.MustConfig(4, 1)
	n := &envNode{}
	nodes := map[ids.ProcessID]runtime.Node{1: n, 2: silent{}, 3: silent{}, 4: silent{}}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	return net, n.env
}

func mkReq(seq uint64) *wire.Request {
	return &wire.Request{Client: 1, Seq: seq, Op: []byte("op")}
}

func TestIngressBatchSizeFlushesSynchronously(t *testing.T) {
	net, env := newEnv(t)
	var got [][]*wire.Request
	in := host.NewIngress(env, 3,
		func(reqs []*wire.Request, _ wire.TraceContext) { got = append(got, reqs) })

	in.Submit(mkReq(1))
	in.Submit(mkReq(2))
	if len(got) != 0 || in.Pending() != 2 {
		t.Fatalf("premature flush: %d batches, %d pending", len(got), in.Pending())
	}
	in.Submit(mkReq(3))
	if len(got) != 1 {
		t.Fatalf("batch-size flush did not fire: %d batches", len(got))
	}
	if len(got[0]) != 3 || got[0][0].Seq != 1 || got[0][2].Seq != 3 {
		t.Fatalf("batch lost arrival order: %v", got[0])
	}
	// The max-latency timer was canceled by the synchronous flush: no
	// second (empty) flush fires later.
	net.Run(5 * time.Second)
	if len(got) != 1 {
		t.Fatalf("stale latency timer flushed again: %d batches", len(got))
	}
}

func TestIngressBatchSizeOneIsUnbatched(t *testing.T) {
	_, env := newEnv(t)
	var got [][]*wire.Request
	in := host.NewIngress(env, 0, // BatchSize < 1 → 1
		func(reqs []*wire.Request, _ wire.TraceContext) { got = append(got, reqs) })
	for seq := uint64(1); seq <= 3; seq++ {
		in.Submit(mkReq(seq))
	}
	if len(got) != 3 {
		t.Fatalf("BatchSize 1 must flush every Submit: %d batches", len(got))
	}
	for i, batch := range got {
		if len(batch) != 1 || batch[0].Seq != uint64(i+1) {
			t.Fatalf("batch %d = %v, want single request seq %d", i, batch, i+1)
		}
	}
}

func TestIngressMaxLatencyFlush(t *testing.T) {
	net, env := newEnv(t)
	var got [][]*wire.Request
	in := host.NewIngress(env, 8,
		func(reqs []*wire.Request, _ wire.TraceContext) { got = append(got, reqs) })

	in.Submit(mkReq(1))
	in.Submit(mkReq(2))
	if len(got) != 0 {
		t.Fatal("partial batch flushed before the latency deadline")
	}
	net.Run(50 * time.Millisecond)
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("latency flush: got %v, want one batch of 2", got)
	}
	if in.Pending() != 0 {
		t.Fatalf("%d requests left pending after flush", in.Pending())
	}

	// The registry records the batch size distribution.
	hist, ok := net.Metrics().Hist("host.ingress.batch_size")
	if !ok {
		t.Fatal("host.ingress.batch_size histogram missing from registry")
	}
	if hist.Count != 1 || hist.Sum != 2 {
		t.Errorf("batch_size histogram count=%d sum=%v, want one sample of 2", hist.Count, hist.Sum)
	}
}

func TestIngressStopCancelsTimerAndDropsBuffer(t *testing.T) {
	net, env := newEnv(t)
	flushed := 0
	in := host.NewIngress(env, 8,
		func([]*wire.Request, wire.TraceContext) { flushed++ })

	in.Submit(mkReq(1))
	in.Stop()
	in.Stop() // idempotent
	net.Run(time.Second)
	if flushed != 0 {
		t.Fatalf("stopped ingress flushed %d times", flushed)
	}
	in.Submit(mkReq(2))
	if flushed != 0 || in.Pending() != 0 {
		t.Fatal("Submit after Stop must be ignored")
	}
}

// recorder is an App that records deliveries and teardown.
type recorder struct {
	env       runtime.Env
	delivered []wire.Message
	stopped   int
}

func (r *recorder) Attach(env runtime.Env, _ *fd.Detector)  { r.env = env }
func (r *recorder) Deliver(_ ids.ProcessID, m wire.Message) { r.delivered = append(r.delivered, m) }
func (r *recorder) Stop()                                   { r.stopped++ }

func TestHostLifecycle(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	app := &recorder{}
	h := host.New(host.Options{
		HeartbeatPeriod: 20 * time.Millisecond,
		App:             app,
	})
	if got := h.State(); got != host.StateNew {
		t.Fatalf("state before Init = %s, want new", got)
	}
	nodes := map[ids.ProcessID]runtime.Node{1: h, 2: silent{}, 3: silent{}, 4: silent{}}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	if got := h.State(); got != host.StateRunning {
		t.Fatalf("state after Init = %s, want running", got)
	}

	// Heartbeats flow while running.
	net.Run(200 * time.Millisecond)
	if net.Steps() == 0 {
		t.Fatal("running host generated no traffic despite heartbeats")
	}

	// Application messages reach the app; heartbeats do not.
	h.Receive(2, &wire.Request{Client: 1, Seq: 1, Op: []byte("x")})
	h.Receive(2, &wire.Heartbeat{From: 2, Seq: 1})
	if len(app.delivered) != 1 {
		t.Fatalf("delivered %d messages, want 1 (heartbeat must be consumed)", len(app.delivered))
	}

	if !net.StopProcess(1) {
		t.Fatal("StopProcess reported no Stopper")
	}
	if got := h.State(); got != host.StateStopped {
		t.Fatalf("state after Stop = %s, want stopped", got)
	}
	if app.stopped != 1 {
		t.Fatalf("app Stop ran %d times, want 1", app.stopped)
	}
	h.Stop() // idempotent
	if app.stopped != 1 {
		t.Fatal("double Stop reached the application twice")
	}

	// A stopped host drops traffic.
	h.Receive(2, &wire.Request{Client: 1, Seq: 2, Op: []byte("y")})
	if len(app.delivered) != 1 {
		t.Fatal("stopped host delivered traffic")
	}

	// The heartbeater's timers are canceled: the network drains instead
	// of ticking forever.
	net.RunQuiescent(10 * time.Second)
	if net.Pending() != 0 {
		t.Fatalf("%d events still pending after Stop: leaked timers", net.Pending())
	}

	// Lifecycle transitions are observable on the bus.
	var details []string
	for _, e := range net.Events().OfType(obs.TypeLifecycle) {
		details = append(details, e.Detail)
	}
	want := []string{"running", "stopped"}
	if len(details) != len(want) {
		t.Fatalf("lifecycle events %v, want %v", details, want)
	}
	for i := range want {
		if details[i] != want[i] {
			t.Fatalf("lifecycle events %v, want %v", details, want)
		}
	}
}

// TestNewWithoutSelectionIsFDOnly pins how the composition is chosen:
// a host given no selection factory runs network → failure detector →
// application, with no suspicion store or selection module.
func TestNewWithoutSelectionIsFDOnly(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	h := host.New(host.Options{})
	sim.NewNetwork(cfg, map[ids.ProcessID]runtime.Node{1: h, 2: silent{}, 3: silent{}, 4: silent{}}, sim.Options{})
	if h.State() != host.StateRunning || h.Detector == nil {
		t.Fatalf("state %s, detector %v: want a running host with a detector", h.State(), h.Detector)
	}
	if h.Store != nil || h.Selection != nil || h.QuorumSystem() != nil {
		t.Fatal("a host without a selection factory composed a store or selection module")
	}
}

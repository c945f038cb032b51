package load

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// Crash is one scheduled crash (and optional restart) in a sim-mode
// load run. It mirrors chaos.CrashPlan but lives here so the load
// package stays import-light: cmd/loadgen converts generated chaos
// schedules into this shape.
type Crash struct {
	Proc ids.ProcessID
	// At is when the process goes down; RestartAt (0 = never) is when
	// it comes back, recovering from its durable storage.
	At, RestartAt time.Duration
	// Hard models power loss: unsynced writes are lost.
	Hard bool
}

// SimOptions configures a virtual-time open-loop run against a
// simulated XPaxos cluster.
type SimOptions struct {
	// N is the cluster size (default 4).
	N int
	// BatchSize and Window tune the commit path (defaults 8, 16).
	BatchSize int
	Window    int
	// Arrivals and Keys define the workload (required).
	Arrivals Arrivals
	Keys     Keys
	// Seed drives the network, arrival, and key streams.
	Seed int64
	// Duration is the virtual-time arrival window (required > 0);
	// Drain bounds how much longer the run waits for stragglers
	// (default 10s).
	Duration time.Duration
	Drain    time.Duration
	// MaxInFlight bounds outstanding requests (default 256); arrivals
	// beyond it queue up to Backlog (default 64×MaxInFlight), then
	// shed.
	MaxInFlight int
	Backlog     int
	// RetryEvery re-submits an uncompleted request on this period
	// (default 1s). A request a live replica forwarded crosses a leader
	// crash without it (the replica re-submits it once the new view
	// installs); the retry carries the ones the crashed leader itself
	// held. Either way its full wait counts, measured from the intended
	// send time.
	RetryEvery time.Duration
	// Topology, when set, supplies the latency model and any partition
	// windows. FD timeouts are scaled to its worst one-way delay.
	Topology *sim.BoundTopology
	// Filter is an extra fault filter (e.g. a chaos schedule), applied
	// after the topology's partition filter.
	Filter sim.Filter
	// Crashes are scheduled process crashes/restarts.
	Crashes []Crash
	// FaultDesc/FaultAt, when FaultDesc is non-empty, attach a
	// FaultReport with recovery analysis to the summary.
	FaultDesc string
	FaultAt   time.Duration
	// BucketWidth sets the timeline resolution (default 500ms).
	BucketWidth time.Duration
	// Metrics, when set, also collects the cluster's own registry.
	Metrics *metrics.Registry
	// Stop, when non-nil, aborts the run early once closed (checked
	// between simulator steps): the summary then covers the virtual
	// time actually simulated. cmd/loadgen wires SIGINT/SIGTERM here.
	Stop <-chan struct{}
}

func (o *SimOptions) defaults() error {
	if o.Arrivals == nil || o.Keys == nil {
		return errors.New("load: Arrivals and Keys are required")
	}
	if o.Duration <= 0 {
		return errors.New("load: Duration must be positive")
	}
	if o.N <= 0 {
		o.N = 4
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 8
	}
	if o.Window <= 0 {
		o.Window = 16
	}
	if o.Drain <= 0 {
		o.Drain = 10 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 256
	}
	if o.Backlog <= 0 {
		o.Backlog = 64 * o.MaxInFlight
	}
	if o.RetryEvery <= 0 {
		o.RetryEvery = time.Second
	}
	return nil
}

// simReq is one in-flight request in the virtual-time engine.
type simReq struct {
	id       uint64 // doubles as the wire client ID
	intended time.Duration
	op       []byte
}

// simEngine drives the open-loop schedule inside the simulator's
// event loop: one event chain for arrivals, per-request retry timers,
// completion via the replicas' OnExecute hooks.
type simEngine struct {
	opts    SimOptions
	cluster *cluster.Cluster
	net     *sim.Network
	rec     *Recorder
	rng     *rand.Rand // arrival/key stream, separate from the network's

	pending  map[uint64]*simReq // sent, not yet executed
	queue    []*simReq          // offered, waiting for an in-flight slot
	inflight int
	nextID   uint64
	closed   bool // arrival window over
}

// RunSim executes one open-loop run in virtual time and returns its
// summary. Deterministic for a fixed SimOptions (including Seed).
func RunSim(opts SimOptions) (*Summary, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	cfg, err := ids.NewConfig(opts.N, maxFaulty(opts.N))
	if err != nil {
		return nil, fmt.Errorf("load: bad cluster size %d: %w", opts.N, err)
	}

	e := &simEngine{
		opts:    opts,
		rec:     NewRecorder(opts.BucketWidth),
		rng:     rand.New(rand.NewSource(opts.Seed ^ 0x10ad)),
		pending: make(map[uint64]*simReq),
	}

	topoName := ""
	if opts.Topology != nil {
		topoName = opts.Topology.Name()
	}
	simOpts := sim.Options{Seed: opts.Seed, Filter: opts.Filter, Metrics: opts.Metrics}
	fdOpts := cluster.Links(opts.Topology, &simOpts)
	// Every member is a durable XPaxos process over its site's backend,
	// so a restarted one recovers what it had synced.
	e.cluster = cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
		nodeOpts := core.DefaultNodeOptions()
		nodeOpts.FD = fdOpts
		nodeOpts.Storage = at.Backend
		node, rep := xpaxos.NewQSNode(xpaxos.Options{
			CheckpointInterval: 0, // many one-shot clients; keep the log simple
			BatchSize:          opts.BatchSize,
			Window:             opts.Window,
			OnExecute:          e.complete,
		}, nodeOpts)
		return cluster.Member{Node: node, Submit: rep.Submit, IsLeader: rep.IsLeader}
	}, simOpts)
	e.net = e.cluster.Net

	for _, c := range opts.Crashes {
		c := c
		e.net.At(c.At, func() {
			e.phase("fault")
			e.cluster.Crash(c.Proc, c.Hard)
		})
		if c.RestartAt > c.At {
			e.net.At(c.RestartAt, func() {
				e.phase("recover")
				e.cluster.Restart(c.Proc)
			})
		}
	}

	// Kick off the arrival chain and close the window at Duration.
	e.phase("steady")
	e.scheduleArrival(e.opts.Arrivals.Next(e.rng))
	e.net.At(opts.Duration, func() {
		e.closed = true
		e.phase("drain")
	})

	deadline := opts.Duration + opts.Drain
	stopped := false
	e.net.RunUntil(func() bool {
		if opts.Stop != nil && !stopped {
			select {
			case <-opts.Stop:
				stopped = true
			default:
			}
		}
		return stopped || (e.closed && len(e.pending) == 0 && len(e.queue) == 0)
	}, deadline)
	elapsed := opts.Duration
	if stopped && e.net.Now() < elapsed {
		elapsed = e.net.Now()
	}
	e.net.Close()

	var fault *FaultReport
	if opts.FaultDesc != "" {
		fault = &FaultReport{Desc: opts.FaultDesc, AtS: opts.FaultAt.Seconds()}
	}
	s := e.rec.Summarize(elapsed, fault)
	s.Mode = "sim"
	s.Topology = topoName
	s.Arrivals = opts.Arrivals.String()
	s.Keys = opts.Keys.String()
	s.Seed = opts.Seed
	return s, nil
}

// maxFaulty returns the largest f the system model accepts for n,
// preferring the Byzantine bound n > 3f when n allows it.
func maxFaulty(n int) int {
	f := (n - 1) / 3
	if f < 1 && n >= 3 {
		f = 1
	}
	return f
}

func (e *simEngine) scheduleArrival(at time.Duration) {
	if at >= e.opts.Duration {
		return
	}
	e.net.At(at, func() {
		e.arrive(at)
		e.scheduleArrival(at + e.opts.Arrivals.Next(e.rng))
	})
}

func (e *simEngine) arrive(intended time.Duration) {
	e.rec.Offered()
	e.nextID++
	key := e.opts.Keys.Next(e.rng)
	req := &simReq{
		id:       e.nextID,
		intended: intended,
		op:       []byte(fmt.Sprintf("set %s v%d", key, e.nextID)),
	}
	switch {
	case e.inflight < e.opts.MaxInFlight:
		e.send(req)
	case len(e.queue) < e.opts.Backlog:
		e.queue = append(e.queue, req)
	default:
		e.rec.Shed()
	}
}

// send submits req and arms its retry timer.
func (e *simEngine) send(req *simReq) {
	e.inflight++
	e.pending[req.id] = req
	e.rec.Sent(req.intended, e.net.Now())
	e.submit(req)
	e.armRetry(req)
}

// submit hands req to the cluster like a client with a leader hint;
// with the whole cluster down the retry timer tries again. Each request
// is its own wire-level client, so concurrent and retried requests can
// never trip the replica's per-client duplicate table against each
// other.
func (e *simEngine) submit(req *simReq) {
	e.cluster.Submit(0, &wire.Request{Client: req.id, Seq: 1, Op: req.op}, ids.ProcSet{})
}

func (e *simEngine) armRetry(req *simReq) {
	at := e.net.Now() + e.opts.RetryEvery
	if at >= e.opts.Duration+e.opts.Drain {
		return
	}
	e.net.At(at, func() {
		if _, still := e.pending[req.id]; !still {
			return
		}
		e.submit(req)
		e.armRetry(req)
	})
}

// complete is the OnExecute fan-in shared by every replica: the first
// one to execute a request completes it; later executions of the same
// request no-op.
func (e *simEngine) complete(exec xpaxos.Execution) {
	req, ok := e.pending[exec.Client]
	if !ok {
		return
	}
	delete(e.pending, exec.Client)
	e.inflight--
	e.rec.Complete(req.intended, e.net.Now()-req.intended)
	if len(e.queue) > 0 && e.inflight < e.opts.MaxInFlight {
		next := e.queue[0]
		e.queue = e.queue[1:]
		e.send(next)
	}
}

// phase publishes a LOAD_PHASE protocol event on the run's bus, so a
// flight recording of the run can line protocol events (suspicions,
// view changes) up against what the workload was doing at the time.
func (e *simEngine) phase(name string) {
	e.net.Events().Publish(obs.Event{At: e.net.Now(), Type: obs.TypeLoadPhase, Detail: name})
}

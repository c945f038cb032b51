package xpaxos

import (
	"bytes"
	"fmt"
	"time"

	"quorumselect/internal/crypto"
	"quorumselect/internal/fd"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/obs/tracer"
	"quorumselect/internal/quorum"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// Scope tags XPaxos's expectations in the failure detector.
const Scope = "xpaxos"

// Mode selects the quorum-change regime.
type Mode int

// Modes. See the package comment.
const (
	// ModeQuorumSelection installs quorums issued by the paper's
	// selection module (§V-B).
	ModeQuorumSelection Mode = iota + 1
	// ModeEnumeration is the original XPaxos baseline: on suspicion of
	// an active-quorum member, move to the next quorum in the
	// lexicographic enumeration, round-robin.
	ModeEnumeration
)

// Options configures a Replica.
type Options struct {
	// Mode selects the quorum-change regime (default
	// ModeQuorumSelection).
	Mode Mode
	// SM is the replicated state machine (default KVMachine).
	SM StateMachine
	// OnExecute observes executions in slot order; the sim harness uses
	// it in place of a remote client.
	OnExecute func(Execution)
	// CheckpointInterval takes a stable checkpoint (and garbage-collects
	// the log below it) every this many executed slots. Requires a
	// state machine implementing Snapshotter; 0 disables checkpointing
	// and the log grows without bound.
	CheckpointInterval uint64
	// BatchSize is the client-request ingress batch size: the leader
	// commits up to this many requests per slot. Values < 1 mean 1
	// (unbatched: every request proposes its own slot, the original
	// behavior).
	BatchSize int
	// MaxBatchLatency caps how long a buffered request waits for its
	// batch to fill; <= 0 selects host.DefaultMaxBatchLatency. Ignored
	// at BatchSize 1, where every submit flushes synchronously.
	MaxBatchLatency time.Duration
	// InitialView is the view every replica starts in (default 0). It
	// is configuration, exactly like view 0: all replicas of one group
	// must agree on it, and the group's initial leader is
	// quorumAt(InitialView).Members[0]. The fleet staggers shards
	// across initial views so their leaders land on different
	// processes instead of all on the first enumeration quorum's head.
	InitialView uint64
	// Window bounds how many slots the leader keeps in flight (proposed
	// but not yet committed). With a full window, new batches pool in
	// the ingress mempool instead of becoming protocol state; capacity
	// freed by a committing slot drains them. 0 means unbounded — the
	// lockstep-free behavior of the unwindowed design. Followers accept
	// out of order regardless; execution is in slot order either way.
	Window int
	// System is the generalized quorum system the replica runs on; nil
	// means the paper's n−f threshold system from the configuration.
	// The view enumeration walks the system's minimal quorums and
	// certificate acceptance asks System.IsQuorum instead of counting
	// signatures to q. All replicas of one group must agree on it, and
	// callers must validate non-default specs with quorum.Check first —
	// an intersection-violating spec lets disjoint signer sets both
	// certify.
	System quorum.System
}

// checkpoint is a stable checkpoint: the replica's state after
// executing all slots up to and including Slot.
type checkpoint struct {
	Slot     uint64
	Snapshot []byte
	Digest   []byte
}

// slotTrace is the per-slot tracing state of the commit path: the
// context of this replica's propose/accept span (carried on its
// outgoing COMMIT so peers can parent arrival instants on it) and the
// open quorum-wait span that closes when the slot commits.
type slotTrace struct {
	prep   wire.TraceContext
	quorum tracer.Active
}

// entry is the per-slot round state of the current view.
type entry struct {
	prep *wire.Prepare // prepare accepted in the current view
	// signed is prep.SigBytes(), encoded once when prep is set: every
	// COMMIT of the slot embeds a copy that is compared against it.
	signed     []byte
	adopted    bool // prep was learned from a COMMIT (Fig 3)
	commits    map[ids.ProcessID]*wire.Commit
	commitSent bool
	committed  bool
}

// reqKey identifies a client request: clients number their requests,
// so (client, seq) names one request across resubmissions.
type reqKey struct{ client, seq uint64 }

// forwardedReq is a request this replica forwarded to a leader, with
// its place in forward order.
type forwardedReq struct {
	order uint64
	req   *wire.Request
}

// Replica is one XPaxos replica. It implements core.Application so it
// can be composed with the quorum-selection stack, and is also driven
// directly by StandaloneNode in enumeration mode.
type Replica struct {
	opts     Options
	env      runtime.Env
	detector *fd.Detector
	cfg      ids.Config

	sys         quorum.System
	enumeration []ids.Quorum
	view        uint64
	active      ids.Quorum
	changing    bool

	nextSlot uint64
	entries  map[uint64]*entry
	// inflight counts the entries that hold a prepare and have not
	// committed: the pipeline depth the window bounds. setPrep and
	// tryCommit move it; a view change resets it with the entries.
	inflight int
	// accepted holds the highest-view prepare per slot across views —
	// the log reported in VIEW-CHANGE messages.
	accepted map[uint64]*wire.Prepare
	// ingress is the client-request mempool: requests accumulate there
	// and flush into proposals (leader) or leader forwards (others).
	ingress *host.Ingress
	// ledger executes committed slots in order, each (client, seq)
	// once, and keeps the history. Its recovering flag, set while the
	// WAL tail replays, also suppresses persistence, tracing and
	// checkpointing here.
	ledger *Ledger

	vcVotes map[uint64]map[ids.ProcessID]*wire.ViewChange
	pending []*wire.Request
	// forwarded holds the requests this replica forwarded to a leader
	// and has not seen execute, keyed by (client, seq) with their
	// forward order. A leader that crashes takes its ingress with it;
	// applyNewView re-submits what the new log lacks, so such a request
	// does not wait for the client's retry.
	forwarded    map[reqKey]forwardedReq
	forwardCount uint64
	// buffered holds PREPARE/COMMIT messages for the view currently
	// being installed: a peer that finished its view change earlier may
	// send them before our NEW-VIEW arrives; they are replayed at
	// install instead of being lost (messages are never retransmitted).
	buffered []wire.Message

	viewChanges int
	ckpt        checkpoint

	// wal is the host's durable log (nil when the host has no storage).
	wal host.AppLog

	// slotStart records when each slot's prepare was first accepted
	// locally, feeding the commit-latency histogram.
	slotStart map[uint64]time.Duration
	// traces holds the open per-slot commit-path spans (see slotTrace);
	// dropped wholesale on a view change, trimmed with the checkpoint.
	traces map[uint64]*slotTrace
	// vcTrace is the span covering an in-progress view change.
	vcTrace tracer.Active
	// vcStart records when the in-progress view change began, feeding
	// the view-change-duration histogram.
	vcStart time.Duration

	m replicaMetrics
}

// replicaMetrics are the normal-case (per message, per slot, per
// request) series, resolved at Attach; view changes, checkpoints,
// detections and errors stay name-keyed at their call sites.
type replicaMetrics struct {
	prepareSent, commitSent, verifyMemoized, committed, certApplied, executed *metrics.CounterHandle

	commitLatency                       *metrics.HistHandle  // xpaxos.commit.latency.seconds
	view, windowInflight, checkpointLag *metrics.GaugeHandle // per node
}

// NewReplica creates an XPaxos replica.
func NewReplica(opts Options) *Replica {
	if opts.Mode == 0 {
		opts.Mode = ModeQuorumSelection
	}
	if opts.SM == nil {
		opts.SM = NewKVMachine()
	}
	return &Replica{
		opts:      opts,
		entries:   make(map[uint64]*entry),
		accepted:  make(map[uint64]*wire.Prepare),
		ledger:    NewLedger(opts.SM, opts.OnExecute),
		vcVotes:   make(map[uint64]map[ids.ProcessID]*wire.ViewChange),
		forwarded: make(map[reqKey]forwardedReq),
		slotStart: make(map[uint64]time.Duration),
		traces:    make(map[uint64]*slotTrace),
	}
}

// Attach implements core.Application.
func (r *Replica) Attach(env runtime.Env, detector *fd.Detector) {
	r.env = env
	r.detector = detector
	r.cfg = env.Config()
	r.sys = r.opts.System
	if r.sys == nil {
		r.sys = quorum.FromConfig(r.cfg)
	}
	if r.sys.N() != r.cfg.N {
		panic("xpaxos: quorum system size does not match configuration n")
	}
	r.enumeration = enumerationFor(r.sys)
	r.view = r.opts.InitialView
	r.active = r.quorumAt(r.view)
	r.nextSlot = 1
	r.ingress = host.NewIngress(env, host.IngressOptions{
		BatchSize:  r.opts.BatchSize,
		MaxLatency: r.opts.MaxBatchLatency,
	}, r.flushBatch)
	// The commit window gates ingress flushes only while this replica
	// leads: followers forward batches immediately (the leader's own
	// ingress applies its window), and during a view change flushBatch
	// parks batches in r.pending, so the gate stays open.
	r.ingress.SetGate(func() bool {
		return !r.IsLeader() || r.changing || r.windowOpen()
	})
	reg := env.Metrics()
	r.m = replicaMetrics{
		prepareSent:    reg.CounterHandle("xpaxos.prepare.sent"),
		commitSent:     reg.CounterHandle("xpaxos.commit.sent"),
		verifyMemoized: reg.CounterHandle("xpaxos.verify.memoized"),
		committed:      reg.CounterHandle("xpaxos.committed"),
		certApplied:    reg.CounterHandle("xpaxos.cert.applied"),
		executed:       reg.CounterHandle("xpaxos.executed"),
		commitLatency:  reg.HistHandle("xpaxos.commit.latency.seconds"),
		view:           runtime.NodeGauge(env, "xpaxos.view"),
		windowInflight: runtime.NodeGauge(env, "xpaxos.window.inflight"),
		checkpointLag:  runtime.NodeGauge(env, "xpaxos.checkpoint.lag"),
	}
	r.m.view.Set(float64(r.view))
}

// Stop implements host.Stoppable: cancel the ingress flush timer so a
// stopped replica holds no live timers.
func (r *Replica) Stop() {
	if r.ingress != nil {
		r.ingress.Stop()
	}
}

// View returns the current view number.
func (r *Replica) View() uint64 { return r.view }

// ActiveQuorum returns the current active quorum.
func (r *Replica) ActiveQuorum() ids.Quorum { return r.active }

// Leader returns the leader of the current view: the active-quorum
// member with the lowest identifier (§V-A step 1).
func (r *Replica) Leader() ids.ProcessID { return r.active.Members[0] }

// IsLeader reports whether this replica leads the current view.
func (r *Replica) IsLeader() bool { return r.Leader() == r.env.ID() }

// InQuorum reports whether this replica is in the active quorum.
func (r *Replica) InQuorum() bool { return r.active.Contains(r.env.ID()) }

// ViewChanges returns how many view changes this replica performed.
func (r *Replica) ViewChanges() int { return r.viewChanges }

// LastExecuted returns the highest executed slot.
func (r *Replica) LastExecuted() uint64 { return r.ledger.LastExecuted() }

// Executions returns the executions observed so far, in order.
func (r *Replica) Executions() []Execution { return r.ledger.Executions() }

// System returns the quorum system the replica runs on.
func (r *Replica) System() quorum.System { return r.sys }

// quorumAt maps a view number to its quorum: the lexicographic
// enumeration of the system's minimal quorums, round-robin (§V-B).
func (r *Replica) quorumAt(v uint64) ids.Quorum {
	return r.enumeration[int(v%uint64(len(r.enumeration)))]
}

// enumerationFor builds the view→quorum enumeration of a system: the
// threshold fast path reuses ids.EnumerateQuorums (identical to the
// original §V-B enumeration, byte for byte); generalized systems walk
// their minimal quorums. A system too large to enumerate cannot drive
// XPaxos views — that is a deployment-configuration error, caught at
// Attach rather than silently mapping views to arbitrary quorums.
func enumerationFor(sys quorum.System) []ids.Quorum {
	if t, ok := sys.(quorum.Threshold); ok {
		return ids.EnumerateQuorums(t.N(), t.QuorumSize())
	}
	mq := sys.MinQuorums()
	if len(mq) == 0 {
		panic(fmt.Sprintf("xpaxos: quorum system %s has no enumerable quorums", sys))
	}
	out := make([]ids.Quorum, len(mq))
	for i, m := range mq {
		out[i] = ids.NewQuorum(m)
	}
	return out
}

// quorumIndex maps an issued quorum back to its view-enumeration slot,
// or -1 when the quorum is not one the system enumerates. Threshold
// systems answer arithmetically (ids.QuorumIndex); generalized systems
// scan their (bounded, pre-materialized) enumeration.
func (r *Replica) quorumIndex(q ids.Quorum) int {
	if _, ok := r.sys.(quorum.Threshold); ok {
		return ids.QuorumIndex(r.cfg.N, ids.NewQuorum(q.Members))
	}
	want := ids.NewQuorum(q.Members)
	for i, e := range r.enumeration {
		if e.Equal(want) {
			return i
		}
	}
	return -1
}

// FirstViewLedBy returns the lowest view whose quorum is led by p, and
// whether any view is. A quorum's leader is its first (smallest)
// member, so under lexicographic enumeration only processes 1..n-q+1
// ever lead; the fleet cycles shard initial views across that range to
// spread leader load over distinct processes.
func FirstViewLedBy(cfg ids.Config, p ids.ProcessID) (uint64, bool) {
	for v, q := range ids.EnumerateQuorums(cfg.N, cfg.Q()) {
		if len(q.Members) > 0 && q.Members[0] == p {
			return uint64(v), true
		}
	}
	return 0, false
}

// windowOpen reports whether the leader may take another slot in
// flight.
func (r *Replica) windowOpen() bool {
	return r.opts.Window <= 0 || r.inflight < r.opts.Window
}

// setPrep installs p, whose signed bytes are signed, as the slot's
// prepare, counting the slot in flight when it first gets one (a
// committed entry always has one).
func (r *Replica) setPrep(e *entry, p *wire.Prepare, signed []byte) {
	if e.prep == nil {
		r.inflight++
	}
	e.prep, e.signed = p, signed
}

// Submit injects a client request at this replica (the harness's or
// server frontend's entry point). Requests buffer in the ingress
// mempool; flushed batches propose (leader) or forward to the leader.
// At batch size 1 every Submit flushes synchronously, the original
// request-per-slot behavior.
func (r *Replica) Submit(req *wire.Request) {
	if r.ledger.Executed(req) {
		return // already executed; a real deployment would re-reply
	}
	if err := r.ingress.Submit(req); err != nil {
		r.env.Metrics().Inc("xpaxos.submit.rejected", 1)
	}
}

// traceStart opens a commit-path span unless the replica is replaying
// its WAL: recovered history already happened and is not re-traced.
func (r *Replica) traceStart(name string, parent wire.TraceContext) tracer.Active {
	if r.ledger.Recovering() {
		return tracer.Active{}
	}
	return runtime.TraceStart(r.env, name, parent)
}

func (r *Replica) slotTraceFor(slot uint64) *slotTrace {
	st, ok := r.traces[slot]
	if !ok {
		st = &slotTrace{}
		r.traces[slot] = st
	}
	return st
}

// flushBatch receives ingress batches. The role check happens at flush
// time, not submit time: leadership may have changed while the batch
// filled. tc is the ingress span covering the batch's buffering time;
// it parents the propose span (here, or on the leader after a forward).
func (r *Replica) flushBatch(reqs []*wire.Request, tc wire.TraceContext) {
	if !r.IsLeader() {
		batch := &wire.Batch{Reqs: make([]wire.Request, len(reqs)), TC: tc}
		for i, req := range reqs {
			batch.Reqs[i] = *req
			r.forwardCount++
			r.forwarded[reqKey{req.Client, req.Seq}] = forwardedReq{order: r.forwardCount, req: req}
		}
		r.env.Send(r.Leader(), batch)
		return
	}
	if r.changing {
		// Requests survive the view change; their ingress trace does not
		// (they re-enter ingress when the new view installs).
		r.pending = append(r.pending, reqs...)
		return
	}
	r.propose(reqs, tc)
}

// propose assigns the next slot to the batch and runs step 1 of the
// normal case; the batch rides in the PREPARE (Req + Rest), covered by
// the leader's signature.
func (r *Replica) propose(reqs []*wire.Request, tc wire.TraceContext) {
	slot := r.nextSlot
	r.nextSlot++
	stage := r.traceStart("propose", tc)
	stage.SetSlot(slot)
	stage.SetView(r.view)
	prep := &wire.Prepare{
		Leader: r.env.ID(),
		View:   r.view,
		Slot:   slot,
		Req:    *reqs[0],
	}
	if len(reqs) > 1 {
		prep.Rest = make([]wire.Request, len(reqs)-1)
		for i, req := range reqs[1:] {
			prep.Rest[i] = *req
		}
	}
	runtime.Sign(r.env, prep)
	prep.TC = stage.Context() // outside signature coverage
	r.m.prepareSent.Inc()
	for _, p := range r.active.Members {
		if p != r.env.ID() {
			r.env.Send(p, prep)
		}
	}
	// The leader "receives" its own PREPARE: accept it, issue the
	// commit expectations, and send its COMMIT (§V-A: expectations are
	// issued when receiving or *sending* a PREPARE).
	r.acceptPrepare(prep, stage)
	if r.opts.Window > 0 {
		r.m.windowInflight.Set(float64(r.inflight))
	}
}

// Deliver implements core.Application: demultiplex authenticated
// application messages.
func (r *Replica) Deliver(from ids.ProcessID, m wire.Message) {
	switch msg := m.(type) {
	case *wire.Request:
		// Forwarded client request; only the leader proposes.
		if r.IsLeader() {
			r.Submit(msg)
		}
	case *wire.Batch:
		// Forwarded ingress batch; only the leader proposes. Requests
		// re-enter this replica's ingress, so forwarded traffic batches
		// on the leader's own policy; the forwarder's trace is adopted
		// so the commit path hangs off the originating replica's tree.
		if r.IsLeader() {
			r.ingress.Adopt(msg.TC)
			for i := range msg.Reqs {
				req := msg.Reqs[i]
				r.Submit(&req)
			}
		}
	case *wire.Prepare:
		r.onPrepare(msg)
	case *wire.Commit:
		r.onCommit(msg)
	case *wire.CommitCert:
		r.onCommitCert(msg)
	case *wire.ViewChange:
		r.onViewChange(msg)
	case *wire.NewView:
		r.onNewView(msg)
	}
}

// onPrepare is step 2 of the normal case plus the equivocation check.
func (r *Replica) onPrepare(p *wire.Prepare) {
	if p.View == r.view && r.changing {
		r.buffered = append(r.buffered, p)
		return // replayed once the view is installed
	}
	if p.View != r.view || r.changing || !r.InQuorum() {
		return // stale view or not participating
	}
	if p.Leader != r.Leader() {
		// Signed PREPARE from a non-leader quorum member: a commission
		// failure by the signer.
		r.detector.Detected(p.Leader)
		return
	}
	e := r.entry(p.Slot)
	if e.prep != nil && !e.adopted {
		// A second direct PREPARE for the same (view, slot): detect
		// equivocation if it differs.
		if !bytes.Equal(e.signed, p.SigBytes()) {
			r.env.Metrics().Inc("xpaxos.detected.equivocation", 1)
			r.detector.Detected(p.Leader)
		}
		return
	}
	if e.prep != nil && e.adopted {
		// Fig 3: the prepare adopted from an early COMMIT must match
		// the leader's direct PREPARE.
		if !bytes.Equal(e.signed, p.SigBytes()) {
			r.env.Metrics().Inc("xpaxos.detected.equivocation", 1)
			r.detector.Detected(p.Leader)
			return
		}
		e.adopted = false // direct prepare received; expectation matched
		return
	}
	stage := r.traceStart("accept", p.TC)
	stage.SetSlot(p.Slot)
	stage.SetView(p.View)
	r.acceptPrepare(p, stage)
}

// acceptPrepare stores the prepare, issues the §V-A expectations and
// sends this replica's COMMIT. stage is the open propose (leader) or
// accept (follower) span covering this slot's local processing; it
// closes once the COMMIT is out and the quorum wait begins.
func (r *Replica) acceptPrepare(p *wire.Prepare, stage tracer.Active) {
	e := r.entry(p.Slot)
	if _, ok := r.slotStart[p.Slot]; !ok {
		r.slotStart[p.Slot] = r.env.Now()
	}
	r.setPrep(e, p, p.SigBytes())
	e.adopted = false
	r.accepted[p.Slot] = p
	st := r.slotTraceFor(p.Slot)
	st.prep = stage.Context()
	// Persist-before-act: the COMMIT below promises this prepare is in
	// our log, so it must be on disk before the COMMIT leaves.
	var ws tracer.Active
	if r.wal != nil {
		ws = r.traceStart("wal.sync", stage.Context())
	}
	r.persistPrepare(recAccepted, p)
	r.persistSync()
	runtime.TraceEnd(r.env, ws)
	// First subtlety (§V-A): no expectation for processes whose COMMIT
	// already arrived.
	for _, k := range r.active.Members {
		if _, have := e.commits[k]; k == r.env.ID() || have {
			continue
		}
		r.expectCommit(k, p.View, p.Slot)
	}
	r.sendCommit(e, p)
	runtime.TraceEnd(r.env, stage)
	st.quorum = r.traceStart("quorum", stage.Context())
	st.quorum.SetSlot(p.Slot)
	st.quorum.SetView(p.View)
	r.tryCommit(p.Slot, e)
}

func (r *Replica) expectCommit(k ids.ProcessID, view, slot uint64) {
	r.detector.Expect(Scope, k, fmt.Sprintf("COMMIT(v=%d,s=%d)", view, slot),
		func(m wire.Message) bool {
			c, ok := m.(*wire.Commit)
			return ok && c.Replica == k && c.View == view && c.Slot == slot
		})
}

func (r *Replica) expectPrepare(leader ids.ProcessID, view, slot uint64) {
	r.detector.Expect(Scope, leader, fmt.Sprintf("PREPARE(v=%d,s=%d)", view, slot),
		func(m wire.Message) bool {
			p, ok := m.(*wire.Prepare)
			return ok && p.Leader == leader && p.View == view && p.Slot == slot
		})
}

// sendCommit broadcasts this replica's COMMIT (carrying the full
// PREPARE, the paper's second protocol change) to the other quorum
// members.
func (r *Replica) sendCommit(e *entry, p *wire.Prepare) {
	if e.commitSent {
		return
	}
	e.commitSent = true
	c := &wire.Commit{
		Replica: r.env.ID(),
		View:    p.View,
		Slot:    p.Slot,
		HasPrep: true,
		Prep:    *p,
	}
	runtime.Sign(r.env, c)
	if st, ok := r.traces[p.Slot]; ok {
		c.TC = st.prep // receivers parent their arrival instant on our span
	}
	e.commits[r.env.ID()] = c
	r.m.commitSent.Inc()
	for _, k := range r.active.Members {
		if k != r.env.ID() {
			r.env.Send(k, c)
		}
	}
}

// onCommit is step 3 of the normal case plus the §V-A subtleties.
func (r *Replica) onCommit(c *wire.Commit) {
	if c.View == r.view && r.changing {
		r.buffered = append(r.buffered, c)
		return // replayed once the view is installed
	}
	if c.View != r.view || r.changing || !r.InQuorum() {
		return
	}
	if !r.active.Contains(c.Replica) {
		return // commits count only from active-quorum members
	}
	// Second subtlety: a COMMIT must include a valid PREPARE. The
	// outer signature was verified where the frame landed; the
	// embedded prepare is verified here (memoized against the slot's
	// already-verified prepare in the steady state). Its signed bytes
	// are encoded once, here, for that check and the equivocation
	// check below.
	var signed []byte
	if c.HasPrep && c.Prep.View == c.View && c.Prep.Slot == c.Slot && c.Prep.Leader == r.Leader() {
		signed = c.Prep.SigBytes()
	}
	if signed == nil || r.verifyEmbedded(c, signed) != nil {
		r.env.Metrics().Inc("xpaxos.detected.malformed", 1)
		r.detector.Detected(c.Replica)
		return
	}
	if !c.TC.Zero() && !r.ledger.Recovering() {
		runtime.TraceInstant(r.env, "commit.recv", c.TC)
	}
	e := r.entry(c.Slot)
	if e.prep != nil {
		// Equivocation: a valid PREPARE that differs from ours.
		if !bytes.Equal(e.signed, signed) {
			r.env.Metrics().Inc("xpaxos.detected.equivocation", 1)
			r.detector.Detected(r.Leader())
			return
		}
	} else {
		// Third subtlety (Fig 3): COMMIT before PREPARE — adopt the
		// embedded prepare, send our own COMMIT, and expect the direct
		// PREPARE from the leader. The embedded prepare kept its trace
		// context, so the accept span still joins the leader's trace.
		prep := c.Prep
		r.setPrep(e, &prep, signed)
		e.adopted = true
		r.accepted[c.Slot] = &prep
		stage := r.traceStart("accept", prep.TC)
		stage.SetSlot(c.Slot)
		stage.SetView(c.View)
		st := r.slotTraceFor(c.Slot)
		st.prep = stage.Context()
		// Adopted prepares carry the same promise as direct ones:
		// persist before our COMMIT goes out.
		var ws tracer.Active
		if r.wal != nil {
			ws = r.traceStart("wal.sync", stage.Context())
		}
		r.persistPrepare(recAccepted, &prep)
		r.persistSync()
		runtime.TraceEnd(r.env, ws)
		r.expectPrepare(r.Leader(), c.View, c.Slot)
		r.sendCommit(e, &prep)
		runtime.TraceEnd(r.env, stage)
		st.quorum = r.traceStart("quorum", stage.Context())
		st.quorum.SetSlot(c.Slot)
		st.quorum.SetView(c.View)
	}
	e.commits[c.Replica] = c
	r.tryCommit(c.Slot, e)
}

// verifyEmbedded checks a COMMIT's embedded prepare signature; signed
// is that prepare's SigBytes. In the steady state every COMMIT for a
// slot embeds a byte-identical copy of the prepare this replica already
// accepted — and that prepare's signature was verified when it arrived
// (where the frame of a direct PREPARE landed, or right here for the
// first adopting COMMIT) — so a matching copy is vouched for without a
// second crypto pass. This matters at q−1 redundant verifications per
// slot on the hot path.
func (r *Replica) verifyEmbedded(c *wire.Commit, signed []byte) error {
	if e, ok := r.entries[c.Slot]; ok && e.prep != nil &&
		bytes.Equal(e.signed, signed) &&
		bytes.Equal(e.prep.Signature(), c.Prep.Signature()) {
		r.m.verifyMemoized.Inc()
		return nil
	}
	return r.env.Auth().Verify(c.Prep.Leader, signed, c.Prep.Signature())
}

// tryCommit commits the slot once COMMITs from every other quorum
// member arrived with matching prepares, then executes in slot order.
func (r *Replica) tryCommit(slot uint64, e *entry) {
	if e.committed || e.prep == nil || !e.commitSent {
		return
	}
	for _, k := range r.active.Members {
		if _, ok := e.commits[k]; !ok {
			return
		}
	}
	e.committed = true
	r.inflight--
	st := r.traces[slot]
	if st != nil {
		runtime.TraceEnd(r.env, st.quorum)
	}
	reqs := e.prep.Requests()
	r.ledger.Commit(slot, reqs)
	// The slot is decided: persist the deciding prepare before
	// executing it or shipping the certificate to passive replicas.
	var ws tracer.Active
	if st != nil && st.quorum.Traced() && r.wal != nil {
		ws = r.traceStart("wal.sync", st.quorum.Context())
	}
	r.persistPrepare(recCommitted, e.prep)
	r.persistSync()
	runtime.TraceEnd(r.env, ws)
	r.m.committed.Add(int64(len(reqs)))
	if start, ok := r.slotStart[slot]; ok {
		r.m.commitLatency.Observe(
			(r.env.Now() - start).Seconds())
		delete(r.slotStart, slot)
	}
	// Lazy replication (XPaxos keeps passive replicas "lazily
	// updated"): the leader ships the self-certifying commit
	// certificate to the processes outside the active quorum.
	if r.IsLeader() {
		cert := &wire.CommitCert{Slot: slot}
		for _, k := range r.active.Members {
			cert.Commits = append(cert.Commits, *e.commits[k])
		}
		for _, p := range r.cfg.All() {
			if !r.active.Contains(p) {
				r.env.Send(p, cert)
			}
		}
	}
	r.execute()
	// A committed slot frees window capacity: drain batches the gate
	// held back. Flush is reentrancy-guarded, so reaching here from a
	// flush-triggered propose chain is fine — the outer drain loop
	// continues instead.
	if r.opts.Window > 0 {
		r.m.windowInflight.Set(float64(r.inflight))
		if r.IsLeader() && !r.changing {
			r.ingress.Flush()
		}
	}
}

// onCommitCert verifies a lazy-replication certificate and adopts the
// committed request: a quorum of distinct validly signed COMMITs (per
// the replica's quorum system — n−f of them under the default threshold
// spec) embedding the same valid PREPARE for this slot. Quorum
// intersection guarantees at least one signer is correct and committed
// the slot, so the value is the decided one — which is exactly why an
// intersection-violating spec must never get this far.
func (r *Replica) onCommitCert(cert *wire.CommitCert) {
	if r.ledger.Committed(cert.Slot) {
		return
	}
	// Pass 1: structural checks, collecting every plausible commit's
	// signature work — the outer COMMIT and its embedded PREPARE — into
	// one batch. A well-formed certificate embeds the SAME prepare in
	// each of its q commits, so batched verification (which dedups
	// identical items) does q+1 actual checks where a serial loop does
	// 2q.
	cand := make([]int, 0, len(cert.Commits))
	items := make([]crypto.BatchItem, 0, 2*len(cert.Commits))
	for i := range cert.Commits {
		c := &cert.Commits[i]
		if c.Slot != cert.Slot || !c.HasPrep || c.Prep.Slot != cert.Slot || c.Prep.View != c.View {
			continue
		}
		if !c.Replica.Valid(r.cfg.N) {
			continue
		}
		cand = append(cand, i)
		items = append(items, runtime.BatchItemOf(c), runtime.BatchItemOf(&c.Prep))
	}
	errs := runtime.VerifyBatch(r.env, items)
	// Pass 2: count distinct, validly signed commits agreeing on one
	// embedded prepare.
	signers := ids.NewProcSet()
	var prep *wire.Prepare
	var prepSigned []byte
	for j, i := range cand {
		c := &cert.Commits[i]
		if signers.Contains(c.Replica) || errs[2*j] != nil || errs[2*j+1] != nil {
			continue
		}
		// items[2j+1] holds this commit's embedded prepare's SigBytes.
		if prep == nil {
			p := c.Prep
			prep, prepSigned = &p, items[2*j+1].Data
		} else if !bytes.Equal(prepSigned, items[2*j+1].Data) {
			continue // conflicting embedded prepare: not part of this cert
		}
		signers.Add(c.Replica)
	}
	if prep == nil || !r.sys.IsQuorum(signers.Sorted()) {
		r.env.Metrics().Inc("xpaxos.cert.rejected", 1)
		return
	}
	r.ledger.Commit(cert.Slot, prep.Requests())
	if !prep.TC.Zero() && !r.ledger.Recovering() {
		// Lazily replicated slots still join the original trace: the
		// embedded prepare's context parents this replica's execute span.
		r.slotTraceFor(cert.Slot).prep = prep.TC
	}
	if cur, ok := r.accepted[cert.Slot]; !ok || prep.View >= cur.View {
		r.accepted[cert.Slot] = prep
	}
	r.persistPrepare(recCommitted, prep)
	r.persistSync()
	r.m.certApplied.Inc()
	r.execute()
}

// execute runs committed slots through the ledger in slot order, each
// under its execute span, taking periodic checkpoints.
func (r *Replica) execute() {
	for {
		slot, reqs, ok := r.ledger.Next()
		if !ok {
			return
		}
		var es tracer.Active
		if st := r.traces[slot]; st != nil {
			parent := st.quorum.Context()
			if parent.Zero() {
				parent = st.prep // lazy replication: no quorum span
			}
			es = r.traceStart("execute", parent)
			es.SetSlot(slot)
		}
		if len(r.forwarded) > 0 {
			for _, req := range reqs {
				delete(r.forwarded, reqKey{req.Client, req.Seq})
			}
		}
		ran := r.ledger.Execute(slot, reqs)
		if ran > 0 {
			r.m.executed.Add(int64(ran))
		}
		if dup := len(reqs) - ran; dup > 0 {
			r.env.Metrics().Inc("xpaxos.executed.duplicate", int64(dup))
		}
		runtime.TraceEnd(r.env, es)
		delete(r.traces, slot)
		r.m.checkpointLag.Set(float64(slot - r.ckpt.Slot))
		if r.opts.CheckpointInterval > 0 && !r.ledger.Recovering() && slot%r.opts.CheckpointInterval == 0 {
			r.takeCheckpoint()
		}
	}
}

// takeCheckpoint snapshots the executed state (the ledger's checkpoint
// blob) and garbage-collects the log below it. Requires a Snapshotter
// state machine; silently skipped otherwise.
func (r *Replica) takeCheckpoint() {
	data, ok := r.ledger.checkpoint()
	if !ok {
		return
	}
	slot := r.ledger.LastExecuted()
	r.ckpt = checkpoint{Slot: slot, Snapshot: data, Digest: crypto.Digest(data)}
	r.env.Metrics().Inc("xpaxos.checkpoint.taken", 1)
	r.m.checkpointLag.Set(0)
	runtime.Emit(r.env, obs.Event{Type: obs.TypeCheckpoint, View: r.view, Slot: slot})
	r.gcBelow(slot)
	// The checkpoint moved: compact the WAL behind a fresh durable
	// snapshot.
	r.persistSnapshot()
}

// restoreCheckpoint installs a stable checkpoint received during a view
// change: state machine, client table and execution cursor.
func (r *Replica) restoreCheckpoint(slot uint64, data []byte) error {
	if err := r.ledger.restore(slot, data); err != nil {
		return err
	}
	r.ckpt = checkpoint{Slot: slot, Snapshot: data, Digest: crypto.Digest(data)}
	r.env.Metrics().Inc("xpaxos.checkpoint.restored", 1)
	r.m.checkpointLag.Set(0)
	r.gcBelow(slot)
	// The NEW-VIEW jump is not represented by WAL records, so it must
	// become durable as a snapshot immediately: recovering to the
	// pre-jump state would roll lastExec back below slots this replica
	// has already acknowledged executing.
	r.persistSnapshot()
	return nil
}

// gcBelow drops per-slot state at or below the stable checkpoint.
func (r *Replica) gcBelow(slot uint64) {
	for s := range r.accepted {
		if s <= slot {
			delete(r.accepted, s)
		}
	}
	for s, e := range r.entries {
		if s <= slot && e.committed {
			delete(r.entries, s)
		}
	}
	for s := range r.slotStart {
		if s <= slot {
			delete(r.slotStart, s)
		}
	}
	for s := range r.traces {
		if s <= slot {
			delete(r.traces, s)
		}
	}
}

// LogSize reports the retained per-slot state (accepted prepares), for
// tests asserting that checkpointing bounds memory.
func (r *Replica) LogSize() int { return len(r.accepted) }

// CheckpointSlot returns the latest stable checkpoint slot (0 if none).
func (r *Replica) CheckpointSlot() uint64 { return r.ckpt.Slot }

func (r *Replica) entry(slot uint64) *entry {
	e, ok := r.entries[slot]
	if !ok {
		e = &entry{commits: make(map[ids.ProcessID]*wire.Commit)}
		r.entries[slot] = e
	}
	return e
}

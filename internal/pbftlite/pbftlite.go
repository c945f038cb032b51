// Package pbftlite is a PBFT-style broadcast-all normal case used as
// the baseline for the paper's introductory claim: systems like PBFT,
// Tendermint and BFT-SMaRt run n = 3f+1 replicas, broadcast messages to
// all of them, but need replies from only n−f — so selecting an active
// quorum of n−f well-functioning processes drops roughly 1/3 of the
// inter-replica messages (or 1/2 for n = 2f+1 systems); experiment E4
// measures exactly this.
//
// The protocol is the classic three-phase normal case:
//
//	PRE-PREPARE (leader → replicas), PREPARE (all-to-all),
//	COMMIT (all-to-all), with 2f+1-of-n vote thresholds.
//
// Two participation regimes:
//
//   - BroadcastAll: every replica in Π participates (the baseline).
//   - ActiveQuorum: only the members of a selected quorum of n−f
//     processes exchange messages; the vote threshold is reached with
//     every active member voting (the quorum-selection deployment à la
//     Distler et al.).
//
// View changes are out of scope here — this baseline exists for
// message accounting under fault-free operation, where the paper's
// claimed savings apply; fault handling is the job of the quorum
// selection stack.
package pbftlite

import (
	"fmt"

	"quorumselect/internal/crypto"
	"quorumselect/internal/fd"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/obs/tracer"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// Scope tags this module's expectations in the failure detector.
const Scope = "pbftlite"

// Regime selects who participates in the normal case.
type Regime int

// Participation regimes.
const (
	// BroadcastAll is the classic PBFT pattern over all n replicas.
	BroadcastAll Regime = iota + 1
	// ActiveQuorum restricts traffic to a selected quorum of n−f.
	ActiveQuorum
)

// Options configures a Replica.
type Options struct {
	// Regime selects BroadcastAll (default) or ActiveQuorum.
	Regime Regime
	// SM is the replicated state machine (default KVMachine).
	SM xpaxos.StateMachine
	// OnExecute observes executions in slot order.
	OnExecute func(xpaxos.Execution)
}

type slotState struct {
	prePrepare  *wire.PrePrepare
	prepares    map[ids.ProcessID]bool
	commits     map[ids.ProcessID]bool
	prepared    bool
	committed   bool
	prepareSent bool
	commitSent  bool
	// trace spans the local three-phase round, pre-prepare acceptance
	// to commit. PBFT frames carry no trace context (the baseline is
	// message-accounting only), so the span is node-local.
	trace tracer.Active
}

// Replica is one PBFT-style replica. It implements core.Application so
// the ActiveQuorum regime can be composed with quorum selection.
type Replica struct {
	opts     Options
	env      runtime.Env
	detector *fd.Detector
	cfg      ids.Config

	view     uint64
	active   ids.Quorum // participation set (Π under BroadcastAll)
	nextSlot uint64
	// maxSeen is the highest slot this replica ever saw proposed, across
	// quorum changes: a leader elected after a participation change must
	// not reassign a slot the previous quorum may have committed.
	maxSeen uint64
	slots   map[uint64]*slotState
	// ledger executes committed slots in order, each (client, seq)
	// once; its recovering flag is set while recovered records replay.
	ledger *xpaxos.Ledger

	wal host.AppLog // non-nil when the host is durable
}

// NewReplica creates a PBFT-style replica.
func NewReplica(opts Options) *Replica {
	if opts.Regime == 0 {
		opts.Regime = BroadcastAll
	}
	if opts.SM == nil {
		opts.SM = xpaxos.NewKVMachine()
	}
	return &Replica{
		opts:   opts,
		slots:  make(map[uint64]*slotState),
		ledger: xpaxos.NewLedger(opts.SM, opts.OnExecute),
	}
}

// Attach implements core.Application.
func (r *Replica) Attach(env runtime.Env, detector *fd.Detector) {
	r.env = env
	r.detector = detector
	r.cfg = env.Config()
	r.nextSlot = 1
	switch r.opts.Regime {
	case BroadcastAll:
		r.active = ids.NewQuorum(r.cfg.All())
	case ActiveQuorum:
		r.active = ids.NewQuorum(r.cfg.DefaultQuorum().Sorted())
	}
}

// Leader returns the current primary: the lowest id in the
// participation set.
func (r *Replica) Leader() ids.ProcessID { return r.active.Members[0] }

// IsLeader reports whether this replica is the primary.
func (r *Replica) IsLeader() bool { return r.Leader() == r.env.ID() }

// Participating reports whether this replica exchanges normal-case
// messages.
func (r *Replica) Participating() bool { return r.active.Contains(r.env.ID()) }

// Active returns the current participation set.
func (r *Replica) Active() ids.Quorum { return r.active }

// LastExecuted returns the highest executed slot.
func (r *Replica) LastExecuted() uint64 { return r.ledger.LastExecuted() }

// Executions returns the executions observed so far, in order.
func (r *Replica) Executions() []xpaxos.Execution { return r.ledger.Executions() }

// threshold returns the number of matching votes (sender included)
// required per phase: 2f+1 under BroadcastAll; under ActiveQuorum every
// active member must vote (the omission of any active member is a
// detectable failure handled by selection, not masked by extra
// replicas).
func (r *Replica) threshold() int {
	if r.opts.Regime == BroadcastAll {
		return 2*r.cfg.F + 1
	}
	return r.active.Set().Len()
}

// OnQuorum implements core.Application: under ActiveQuorum, adopt the
// selected participation set.
func (r *Replica) OnQuorum(q ids.Quorum) {
	if r.opts.Regime != ActiveQuorum {
		return
	}
	r.active = ids.NewQuorum(q.Members)
	r.detector.CancelScope(Scope)
	// Per-slot vote state is view-local; reset uncommitted rounds.
	for s, st := range r.slots {
		if !st.committed {
			delete(r.slots, s)
		}
	}
	r.view++
	// If this replica now leads, it must propose above every slot it has
	// seen: a slot that reached commit anywhere was prepared by all of
	// the old active members, so reusing its number would fork history.
	if r.nextSlot <= r.maxSeen {
		r.nextSlot = r.maxSeen + 1
	}
}

// Submit injects a client request (forwarded to the primary if
// needed).
func (r *Replica) Submit(req *wire.Request) {
	if !r.IsLeader() {
		r.env.Send(r.Leader(), req)
		return
	}
	slot := r.nextSlot
	r.nextSlot++
	pp := &wire.PrePrepare{Leader: r.env.ID(), View: r.view, Slot: slot, Req: *req}
	runtime.Sign(r.env, pp)
	r.env.Metrics().Inc("pbftlite.preprepare.sent", 1)
	for _, p := range r.active.Members {
		if p != r.env.ID() {
			r.env.Send(p, pp)
		}
	}
	r.onPrePrepare(pp)
}

// Deliver implements core.Application.
func (r *Replica) Deliver(from ids.ProcessID, m wire.Message) {
	switch msg := m.(type) {
	case *wire.Request:
		if r.IsLeader() {
			r.Submit(msg)
		}
	case *wire.PrePrepare:
		r.onPrePrepare(msg)
	case *wire.PBFTPrepare:
		r.onPrepare(msg)
	case *wire.PBFTCommit:
		r.onCommit(msg)
	}
}

func (r *Replica) onPrePrepare(pp *wire.PrePrepare) {
	if pp.View != r.view || !r.Participating() || pp.Leader != r.Leader() {
		return
	}
	st := r.slot(pp.Slot)
	if st.prePrepare != nil {
		return
	}
	st.prePrepare = pp
	if !r.ledger.Recovering() {
		st.trace = runtime.TraceStart(r.env, "pbft.commit", wire.TraceContext{})
		st.trace.SetSlot(pp.Slot)
		st.trace.SetView(pp.View)
	}
	digest := crypto.Digest(pp.SigBytes())
	// Expect PREPARE votes from the other participants, then vote.
	for _, k := range r.active.Members {
		if k == r.env.ID() || st.prepares[k] {
			continue
		}
		r.expectPhase(k, wire.TypePBFTPrepare, pp.View, pp.Slot)
	}
	r.sendPrepare(st, pp.View, pp.Slot, digest)
	r.advance(pp.Slot, st)
}

func (r *Replica) expectPhase(k ids.ProcessID, t wire.Type, view, slot uint64) {
	r.detector.Expect(Scope, k, fmt.Sprintf("%s(v=%d,s=%d)", t, view, slot),
		func(m wire.Message) bool {
			switch v := m.(type) {
			case *wire.PBFTPrepare:
				return t == wire.TypePBFTPrepare && v.Replica == k && v.View == view && v.Slot == slot
			case *wire.PBFTCommit:
				return t == wire.TypePBFTCommit && v.Replica == k && v.View == view && v.Slot == slot
			default:
				return false
			}
		})
}

func (r *Replica) sendPrepare(st *slotState, view, slot uint64, digest []byte) {
	if st.prepareSent {
		return
	}
	st.prepareSent = true
	st.prepares[r.env.ID()] = true
	vote := &wire.PBFTPrepare{}
	vote.Replica = r.env.ID()
	vote.View = view
	vote.Slot = slot
	vote.Digest = digest
	runtime.Sign(r.env, vote)
	r.env.Metrics().Inc("pbftlite.prepare.sent", 1)
	for _, p := range r.active.Members {
		if p != r.env.ID() {
			r.env.Send(p, vote)
		}
	}
}

func (r *Replica) onPrepare(v *wire.PBFTPrepare) {
	if v.View != r.view || !r.Participating() || !r.active.Contains(v.Replica) {
		return
	}
	st := r.slot(v.Slot)
	st.prepares[v.Replica] = true
	r.advance(v.Slot, st)
}

func (r *Replica) onCommit(v *wire.PBFTCommit) {
	if v.View != r.view || !r.Participating() || !r.active.Contains(v.Replica) {
		return
	}
	st := r.slot(v.Slot)
	st.commits[v.Replica] = true
	r.advance(v.Slot, st)
}

// advance moves a slot through prepared → committed → executed.
func (r *Replica) advance(slot uint64, st *slotState) {
	if st.prePrepare == nil {
		return
	}
	digest := crypto.Digest(st.prePrepare.SigBytes())
	if !st.prepared && st.prepareSent && len(st.prepares) >= r.threshold() {
		st.prepared = true
		// Expect COMMIT votes, then vote commit.
		for _, k := range r.active.Members {
			if k == r.env.ID() || st.commits[k] {
				continue
			}
			r.expectPhase(k, wire.TypePBFTCommit, st.prePrepare.View, slot)
		}
		st.commitSent = true
		st.commits[r.env.ID()] = true
		vote := &wire.PBFTCommit{}
		vote.Replica = r.env.ID()
		vote.View = st.prePrepare.View
		vote.Slot = slot
		vote.Digest = digest
		runtime.Sign(r.env, vote)
		r.env.Metrics().Inc("pbftlite.commit.sent", 1)
		for _, p := range r.active.Members {
			if p != r.env.ID() {
				r.env.Send(p, vote)
			}
		}
	}
	if st.prepared && !st.committed && st.commitSent && len(st.commits) >= r.threshold() {
		st.committed = true
		runtime.TraceEnd(r.env, st.trace)
		st.trace = tracer.Active{}
		req := st.prePrepare.Req
		r.ledger.Commit(slot, []*wire.Request{&req})
		// Persist before acting: the commit must survive a crash before
		// it becomes visible through execution.
		r.persistCommitted(slot, &req)
		r.env.Metrics().Inc("pbftlite.committed", 1)
		r.ledger.ExecuteCommitted()
	}
}

func (r *Replica) slot(s uint64) *slotState {
	if s > r.maxSeen {
		r.maxSeen = s
	}
	st, ok := r.slots[s]
	if !ok {
		st = &slotState{
			prepares: make(map[ids.ProcessID]bool),
			commits:  make(map[ids.ProcessID]bool),
		}
		r.slots[s] = st
	}
	return st
}

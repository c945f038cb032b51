package xpaxos

import (
	"fmt"
	"sort"

	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/obs/tracer"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// OnQuorum implements core.Application: the Quorum Selection module
// issued ⟨QUORUM, Q⟩. Per §V-B the replica suspects every quorum
// ordered before Q (jumping straight to the first view whose quorum is
// Q) and cancels its outstanding expectations.
func (r *Replica) OnQuorum(q ids.Quorum) {
	if r.opts.Mode != ModeQuorumSelection {
		return
	}
	target := r.quorumIndex(q)
	if target < 0 {
		r.env.Metrics().Inc("xpaxos.quorum.unenumerated", 1)
		return
	}
	size := len(r.enumeration)
	cur := int(r.view % uint64(size))
	delta := (target - cur + size) % size
	if delta == 0 {
		return // already on this quorum
	}
	r.startViewChange(r.view + uint64(delta))
}

// OnSuspected drives the enumeration baseline: any suspicion of an
// active-quorum member moves to the next view, trying quorums "one
// after the other" as the original XPaxos does — skipping ahead until a
// quorum free of currently-suspected members is reached (or the whole
// enumeration was cycled once, in which case the system is stuck by
// assumption violation and we stop advancing). In quorum-selection mode
// suspicions are handled by the selection module instead.
func (r *Replica) OnSuspected(s ids.ProcSet) {
	if r.opts.Mode != ModeEnumeration {
		return
	}
	for tries := 0; tries < len(r.enumeration) && r.quorumSuspected(s); tries++ {
		r.startViewChange(r.view + 1)
	}
}

func (r *Replica) quorumSuspected(s ids.ProcSet) bool {
	for _, p := range r.active.Members {
		if p != r.env.ID() && s.Contains(p) {
			return true
		}
	}
	return false
}

// startViewChange moves to view v > view: cancel expectations (§V-B),
// mark the view in progress, and send VIEW-CHANGE with the accepted
// log to the members of the new quorum.
func (r *Replica) startViewChange(v uint64) {
	if v <= r.view {
		return
	}
	// A view change in progress that jumps to a higher view keeps its
	// original start: the duration covers the whole outage. The span
	// follows the same rule: one span per outage, tagged with the view
	// finally installed.
	if !r.changing {
		r.vcStart = r.env.Now()
		r.vcTrace = r.traceStart("viewchange", wire.TraceContext{})
	}
	r.vcTrace.SetView(v)
	r.view = v
	r.active = r.quorumAt(v)
	r.changing = true
	r.viewChanges++
	r.env.Metrics().Inc("xpaxos.viewchange", 1)
	r.m.view.Set(float64(v))
	runtime.Emit(r.env, obs.Event{Type: obs.TypeViewChangeStart, View: v,
		Detail: r.active.String()})
	r.detector.CancelScope(Scope)
	// Reset per-view round state; the accepted log survives. Messages
	// buffered for an older in-progress view are obsolete. Open
	// commit-path spans die with the view (never recorded); surviving
	// slots re-trace when the new leader re-proposes them.
	r.entries = make(map[uint64]*entry)
	r.inflight = 0
	r.buffered = nil
	r.traces = make(map[uint64]*slotTrace)
	// Persist-before-act: the adopted view must be on disk before the
	// VIEW-CHANGE announces it — a replica that crashes after sending
	// must not recover into the abandoned view and accept prepares
	// there.
	r.persistRecord(recViewBytes(v))
	r.persistSync()

	vc := &wire.ViewChange{
		Replica:        r.env.ID(),
		NewViewNum:     v,
		CheckpointSlot: r.ckpt.Slot,
		CheckpointDig:  r.ckpt.Digest,
		Snapshot:       r.ckpt.Snapshot,
		Log:            r.acceptedLog(),
	}
	runtime.Sign(r.env, vc)
	vc.TC = r.vcTrace.Context()
	r.env.Metrics().Inc("xpaxos.viewchange.sent", 1)
	newLeader := r.active.Members[0]
	for _, p := range r.active.Members {
		if p != r.env.ID() {
			r.env.Send(p, vc)
		}
	}
	if r.env.ID() == newLeader {
		r.recordViewChange(vc)
	} else if r.InQuorum() {
		// Expect the NEW-VIEW installation from the incoming leader.
		r.detector.Expect(Scope, newLeader, fmt.Sprintf("NEW-VIEW(v=%d)", v),
			func(m wire.Message) bool {
				nv, ok := m.(*wire.NewView)
				return ok && nv.Leader == newLeader && nv.ViewNum == v
			})
	}
}

// acceptedLog serializes the highest-view accepted prepares, sorted by
// slot.
func (r *Replica) acceptedLog() []wire.LogSlot {
	slots := make([]uint64, 0, len(r.accepted))
	for s := range r.accepted {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	out := make([]wire.LogSlot, 0, len(slots))
	for _, s := range slots {
		out = append(out, wire.LogSlot{Slot: s, Prep: *r.accepted[s]})
	}
	return out
}

// onViewChange collects VIEW-CHANGE votes. A replica seeing a vote for
// a higher view joins it (the standard catch-up rule); the new leader
// installs the view once it holds votes from every member of the new
// quorum.
func (r *Replica) onViewChange(vc *wire.ViewChange) {
	if vc.NewViewNum > r.view {
		r.startViewChange(vc.NewViewNum)
	}
	r.recordViewChange(vc)
}

func (r *Replica) recordViewChange(vc *wire.ViewChange) {
	v := vc.NewViewNum
	if v != r.view || r.quorumAt(v).Members[0] != r.env.ID() {
		return // not the leader of that view (or stale)
	}
	votes, ok := r.vcVotes[v]
	if !ok {
		votes = make(map[ids.ProcessID]*wire.ViewChange)
		r.vcVotes[v] = votes
	}
	votes[vc.Replica] = vc
	// View-change votes hit disk before they count: the install
	// decision below is a function of the vote set, and a leader that
	// installed a view, crashed, and recovered without the votes could
	// otherwise install a different log for the same view from a
	// fresher vote set (see DESIGN.md §10).
	r.persistRecord(recVoteBytes(vc))
	r.persistSync()
	// Install once every member of the new quorum reported (XFT: all
	// q members of the active quorum participate).
	for _, p := range r.active.Members {
		if _, ok := votes[p]; !ok {
			return
		}
	}
	r.installView(v, votes)
}

// installView selects the stable checkpoint (the highest checkpoint
// slot whose digest at least f+1 votes agree on — at least one of them
// correct), merges the reported logs above it (highest prepare view
// wins per slot), broadcasts NEW-VIEW, and re-proposes the merged slots
// in the new view.
func (r *Replica) installView(v uint64, votes map[ids.ProcessID]*wire.ViewChange) {
	ckptSlot, snapshot := r.stableCheckpoint(votes)
	merged := make(map[uint64]wire.Prepare)
	for _, vc := range votes {
		for _, ls := range vc.Log {
			if ls.Slot <= ckptSlot {
				continue // covered by the checkpoint
			}
			cur, ok := merged[ls.Slot]
			if !ok || ls.Prep.View > cur.View {
				merged[ls.Slot] = ls.Prep
			}
		}
	}
	slots := make([]uint64, 0, len(merged))
	for s := range merged {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	log := make([]wire.LogSlot, 0, len(slots))
	for _, s := range slots {
		log = append(log, wire.LogSlot{Slot: s, Prep: merged[s]})
	}

	nv := &wire.NewView{
		Leader:         r.env.ID(),
		ViewNum:        v,
		CheckpointSlot: ckptSlot,
		Snapshot:       snapshot,
		Log:            log,
	}
	runtime.Sign(r.env, nv)
	nv.TC = r.vcTrace.Context()
	r.env.Metrics().Inc("xpaxos.newview.sent", 1)
	for _, p := range r.active.Members {
		if p != r.env.ID() {
			r.env.Send(p, nv)
		}
	}
	r.applyNewView(nv)
}

// stableCheckpoint returns the highest checkpoint slot supported by at
// least f+1 matching (slot, digest) votes, with a snapshot from one of
// the supporters. Slot 0 (no checkpoint) is always available.
func (r *Replica) stableCheckpoint(votes map[ids.ProcessID]*wire.ViewChange) (uint64, []byte) {
	type key struct {
		slot uint64
		dig  string
	}
	count := make(map[key]int)
	snap := make(map[key][]byte)
	for _, vc := range votes {
		k := key{slot: vc.CheckpointSlot, dig: string(vc.CheckpointDig)}
		count[k]++
		snap[k] = vc.Snapshot
	}
	var bestSlot uint64
	var bestSnap []byte
	for k, c := range count {
		if c >= r.cfg.F+1 && k.slot > bestSlot {
			bestSlot = k.slot
			bestSnap = snap[k]
		}
	}
	return bestSlot, bestSnap
}

// onNewView installs a view announced by its leader.
func (r *Replica) onNewView(nv *wire.NewView) {
	if nv.ViewNum < r.view {
		return
	}
	if nv.ViewNum > r.view {
		r.startViewChange(nv.ViewNum)
	}
	if nv.Leader != r.active.Members[0] {
		// Signed NEW-VIEW from a non-leader: commission failure.
		r.detector.Detected(nv.Leader)
		return
	}
	if !nv.TC.Zero() && !r.ledger.Recovering() {
		runtime.TraceInstant(r.env, "newview.recv", nv.TC)
	}
	r.applyNewView(nv)
}

// applyNewView adopts the consolidated log and resumes normal
// operation; the leader re-proposes every slot that is not yet
// executed locally so the commit phase re-runs in the new view, and
// every replica re-submits the requests it forwarded that the log
// lacks.
func (r *Replica) applyNewView(nv *wire.NewView) {
	if !r.changing || nv.ViewNum != r.view {
		return
	}
	r.changing = false
	r.env.Metrics().Observe("xpaxos.viewchange.duration.seconds",
		(r.env.Now() - r.vcStart).Seconds())
	runtime.TraceEnd(r.env, r.vcTrace)
	r.vcTrace = tracer.Active{}
	runtime.Emit(r.env, obs.Event{Type: obs.TypeViewChangeEnd, View: nv.ViewNum,
		Detail: r.active.String()})
	// Catch up from the stable checkpoint if it is ahead of local
	// execution. (The snapshot is taken from the leader's NEW-VIEW; the
	// leader justified it with f+1 matching VIEW-CHANGE digests. A
	// faulty leader forging it is a commission failure outside this
	// reproduction's simplified view change — see DESIGN.md.)
	if nv.CheckpointSlot > r.ledger.LastExecuted() {
		if err := r.restoreCheckpoint(nv.CheckpointSlot, nv.Snapshot); err != nil {
			r.env.Metrics().Inc("xpaxos.checkpoint.restore_failed", 1)
			r.detector.Detected(nv.Leader)
			return
		}
	}
	maxSlot := nv.CheckpointSlot
	for _, ls := range nv.Log {
		prep := ls.Prep
		if cur, ok := r.accepted[ls.Slot]; !ok || prep.View >= cur.View {
			p := prep
			r.accepted[ls.Slot] = &p
		}
		if ls.Slot > maxSlot {
			maxSlot = ls.Slot
		}
	}

	// Replay normal-case messages that arrived for this view while the
	// change was still in progress.
	buffered := r.buffered
	r.buffered = nil
	for _, m := range buffered {
		switch msg := m.(type) {
		case *wire.Prepare:
			r.onPrepare(msg)
		case *wire.Commit:
			r.onCommit(msg)
		}
	}

	if r.IsLeader() {
		if r.nextSlot <= maxSlot {
			r.nextSlot = maxSlot + 1
		}
		// Re-propose every slot of the consolidated log under the new
		// view — not just the ones this leader has yet to execute: a
		// member of the new quorum that was passive before (XPaxos
		// keeps non-quorum replicas lazily updated; this reproduction
		// has no separate state-transfer path) needs the full prefix
		// to execute in order. Replicas that already executed a slot
		// re-commit it but skip re-execution.
		for _, ls := range nv.Log {
			// The re-proposal joins the slot's original trace when the
			// merged prepare still carries one: the span tree then shows
			// the request crossing the view change.
			stage := r.traceStart("propose", ls.Prep.TC)
			stage.SetSlot(ls.Slot)
			stage.SetView(r.view)
			req := ls.Prep.Req
			prep := &wire.Prepare{
				Leader: r.env.ID(),
				View:   r.view,
				Slot:   ls.Slot,
				Req:    req,
				// The whole batch re-proposes with its slot; dropping
				// Rest would silently un-commit the tail requests.
				Rest: append([]wire.Request(nil), ls.Prep.Rest...),
			}
			runtime.Sign(r.env, prep)
			prep.TC = stage.Context()
			r.m.prepareSent.Inc()
			for _, p := range r.active.Members {
				if p != r.env.ID() {
					r.env.Send(p, prep)
				}
			}
			r.acceptPrepare(prep, stage)
		}
	}
	// Re-submit what this replica forwarded and the new log lacks (an
	// old leader may have died holding it), then the requests parked
	// during the change: a leader proposes them, others forward them.
	resubmit := r.unlogged(nv.Log)
	if len(resubmit) > 0 {
		r.env.Metrics().Inc("xpaxos.forward.resubmitted", int64(len(resubmit)))
	}
	for _, f := range resubmit {
		r.Submit(f.req)
	}
	pending := r.pending
	r.pending = nil
	for _, req := range pending {
		r.Submit(req)
	}
	// Batches may have pooled behind a closed window gate in the old
	// view (the gate reports open again now that r.changing cleared or
	// leadership moved); drain them under the new view's rules.
	r.ingress.Flush()
}

// unlogged empties the forwarded set and returns, in forward order, the
// requests in it that no slot of log holds.
func (r *Replica) unlogged(log []wire.LogSlot) []forwardedReq {
	for i := 0; i < len(log) && len(r.forwarded) > 0; i++ {
		p := &log[i].Prep
		delete(r.forwarded, reqKey{p.Req.Client, p.Req.Seq})
		for _, q := range p.Rest {
			delete(r.forwarded, reqKey{q.Client, q.Seq})
		}
	}
	out := make([]forwardedReq, 0, len(r.forwarded))
	for _, f := range r.forwarded {
		out = append(out, f)
	}
	clear(r.forwarded)
	sort.Slice(out, func(i, j int) bool { return out[i].order < out[j].order })
	return out
}

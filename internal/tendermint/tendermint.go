// Package tendermint is a round-based, proposer-rotating BFT consensus
// engine in the style of Tendermint (Buchman, Kwon, Milosevic — the
// paper's reference [2]), integrated with the paper's failure-detection
// and quorum-selection modules. It realizes the paper's future-work
// direction "how best to integrate Quorum Selection in different BFT
// algorithms" for the proposer-rotation family.
//
// Integration points with the paper's architecture:
//
//   - Only the selected active quorum of n−f processes exchanges
//     consensus messages; ⟨QUORUM, Q⟩ events swap the participant set,
//     re-gossip the mempool, and hand newcomers the decision
//     certificates they missed.
//   - Once there is something to decide, every participant issues
//     ⟨EXPECT⟩ for the proposer's PROPOSAL and for the other
//     participants' votes; a silent or slow proposer is suspected
//     (feeding selection) *and* skipped by round rotation — the two
//     recovery mechanisms the architecture composes. Rounds with an
//     empty mempool stay unarmed: expecting a message the protocol does
//     not require would falsely suspect a correct process, violating
//     the failure detector's accuracy requirement (§IV-B).
//   - Conflicting signed proposals for the same (height, round) are a
//     provable commission failure: ⟨DETECTED, proposer⟩.
//
// Safety machinery:
//
//   - Value locking: after precommitting a value at a height, a correct
//     replica prevotes only that value in later rounds, so certificates
//     from different rounds of one height can never conflict.
//   - Decisions are justified by certificates — the proposal plus
//     precommits from the full active quorum — and a certificate from
//     any round decides, so a replica that timed out past the deciding
//     round still converges when the votes arrive.
//   - TM-DECIDED catch-up: decision certificates are self-certifying
//     (n−f precommit signatures include at least one correct process,
//     which by the locking rule can only have precommitted the height's
//     single lockable value), so lagging or newly selected replicas
//     verify and apply them directly.
//
// Simplifications vs. full Tendermint, recorded in DESIGN.md: one value
// per height, all-of-q vote thresholds (the XFT-flavored regime quorum
// selection targets: omissions change the quorum instead of being
// masked by extra voters), and no proof-of-lock relay in proposals.
package tendermint

import (
	"bytes"
	"fmt"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/crypto"
	"quorumselect/internal/fd"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

// Scope tags this module's expectations in the failure detector.
const Scope = "tendermint"

// maxPending bounds the future-message buffer.
const maxPending = 4096

// Options configures a Replica.
type Options struct {
	// SM is the replicated state machine (default KVMachine).
	SM xpaxos.StateMachine
	// RoundTimeout bounds how long an armed round may run before the
	// replica moves to the next proposer (default 250ms).
	RoundTimeout time.Duration
	// BatchSize is the ingress gossip batch size: locally submitted
	// requests accumulate in the shared host.Ingress mempool and gossip
	// to the other participants as one BATCH frame. Values < 1 mean 1
	// (every request gossips immediately).
	BatchSize int
	// MaxBatchLatency caps how long a submitted request waits for its
	// gossip batch to fill; <= 0 selects host.DefaultMaxBatchLatency.
	MaxBatchLatency time.Duration
}

// step is the position inside a round.
type step int

const (
	stepPropose step = iota + 1
	stepPrecommit
	stepDecided
)

// roundState is the vote bookkeeping of one (height, round).
type roundState struct {
	proposal     *wire.TMProposal
	digest       []byte
	prevotes     map[ids.ProcessID]bool
	precommits   map[ids.ProcessID]*wire.TMPrecommit
	step         step
	prevoted     bool
	precommitted bool
}

// reqKey names a client request: clients number their requests, so
// (client, seq) identifies one across gossip and re-proposals.
type reqKey struct{ client, seq uint64 }

// Replica is one consensus participant. It implements core.Application.
type Replica struct {
	opts     Options
	env      runtime.Env
	detector *fd.Detector
	cfg      ids.Config

	active ids.Quorum
	height uint64
	round  uint64
	rounds map[uint64]*roundState // round → state (current height only)
	timer  runtime.Timer
	armed  bool

	// lockedReq is the value-locking rule: once this replica
	// precommits a request at the current height, it prevotes (and
	// proposes) only that request until the height decides.
	lockedReq *wire.Request

	mempool []*wire.Request
	// seen dedupes the mempool until a request executes; from then on
	// the ledger's client table rejects it.
	seen map[reqKey]bool
	// ingress is the shared client-request mempool frontend: locally
	// submitted requests buffer there and flush as gossip batches.
	ingress *host.Ingress

	// pendingMsgs buffers proposals and votes for future rounds or the
	// next height: participants cross height/round boundaries at
	// slightly different instants and consensus messages are never
	// retransmitted.
	pendingMsgs []wire.Message

	// certs holds this replica's decision certificates by height;
	// futureCerts holds verified certificates for heights ahead of the
	// local execution cursor.
	certs       map[uint64]*wire.TMDecided
	futureCerts map[uint64]*wire.TMDecided

	// ledger executes each decided height, each (client, seq) once,
	// and keeps the history.
	ledger *xpaxos.Ledger
}

var _ core.Application = (*Replica)(nil)

// NewReplica creates a consensus replica.
func NewReplica(opts Options) *Replica {
	if opts.SM == nil {
		opts.SM = xpaxos.NewKVMachine()
	}
	if opts.RoundTimeout <= 0 {
		opts.RoundTimeout = 250 * time.Millisecond
	}
	return &Replica{
		opts:        opts,
		rounds:      make(map[uint64]*roundState),
		seen:        make(map[reqKey]bool),
		certs:       make(map[uint64]*wire.TMDecided),
		futureCerts: make(map[uint64]*wire.TMDecided),
		ledger:      xpaxos.NewLedger(opts.SM, nil),
	}
}

// Attach implements core.Application.
func (r *Replica) Attach(env runtime.Env, detector *fd.Detector) {
	r.env = env
	r.detector = detector
	r.cfg = env.Config()
	r.active = ids.NewQuorum(r.cfg.DefaultQuorum().Sorted())
	r.height = 1
	r.ingress = host.NewIngress(env, host.IngressOptions{
		BatchSize:  r.opts.BatchSize,
		MaxLatency: r.opts.MaxBatchLatency,
	}, r.flushGossip)
	r.enterRound(0)
}

// Stop implements host.Stoppable: cancel the round timer and the
// ingress flush timer so a stopped replica holds no live timers.
func (r *Replica) Stop() {
	if r.ingress != nil {
		r.ingress.Stop()
	}
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
}

// Height returns the current consensus height.
func (r *Replica) Height() uint64 { return r.height }

// Round returns the current round within the height.
func (r *Replica) Round() uint64 { return r.round }

// Active returns the current participant set.
func (r *Replica) Active() ids.Quorum { return r.active }

// Executions returns the executions of the decided heights, in order;
// a height that decided an already executed request has none.
func (r *Replica) Executions() []xpaxos.Execution { return r.ledger.Executions() }

// LastExecuted returns the highest decided height, height − 1.
func (r *Replica) LastExecuted() uint64 { return r.ledger.LastExecuted() }

// Proposer returns the proposer of (height, round): rotation over the
// active quorum, offset by both height and round so every member leads
// in turn and a stuck proposer is skipped within the height.
func (r *Replica) Proposer(height, round uint64) ids.ProcessID {
	members := r.active.Members
	return members[int((height+round)%uint64(len(members)))]
}

// Participating reports whether this replica is in the active quorum.
func (r *Replica) Participating() bool { return r.active.Contains(r.env.ID()) }

// OnQuorum implements core.Application: adopt the newly selected
// participant set, re-gossip the pending requests, hand out the
// decision certificates newcomers need to catch up, and restart the
// current height's round machinery.
func (r *Replica) OnQuorum(q ids.Quorum) {
	r.active = ids.NewQuorum(q.Members)
	r.detector.CancelScope(Scope)
	r.rounds = make(map[uint64]*roundState)
	if len(r.mempool) > 0 {
		// Re-gossip the pending requests as one BATCH frame per member,
		// so newly selected participants can propose them.
		batch := &wire.Batch{Reqs: make([]wire.Request, len(r.mempool))}
		for i, req := range r.mempool {
			batch.Reqs[i] = *req
		}
		for _, p := range r.active.Members {
			if p != r.env.ID() {
				r.env.Send(p, batch)
			}
		}
	}
	for h := uint64(1); h < r.height; h++ {
		cert, ok := r.certs[h]
		if !ok {
			continue
		}
		for _, p := range r.active.Members {
			if p != r.env.ID() {
				r.env.Send(p, cert)
			}
		}
	}
	r.enterRound(0)
}

// Submit adds a client request to the shared ingress mempool; flushed
// batches land in the local mempool and gossip to the other
// participants so every proposer can propose them.
func (r *Replica) Submit(req *wire.Request) {
	if r.ledger.Executed(req) {
		return
	}
	if err := r.ingress.Submit(req); err != nil {
		r.env.Metrics().Inc("tendermint.submit.rejected", 1)
	}
}

// flushGossip receives ingress batches: the requests enter the local
// mempool and gossip to the other participants as one BATCH frame
// carrying the ingress span's trace context.
func (r *Replica) flushGossip(reqs []*wire.Request, tc wire.TraceContext) {
	batch := &wire.Batch{TC: tc}
	for _, req := range reqs {
		if r.addToMempool(req) {
			batch.Reqs = append(batch.Reqs, *req)
		}
	}
	if len(batch.Reqs) == 0 {
		return
	}
	for _, p := range r.active.Members {
		if p != r.env.ID() {
			r.env.Send(p, batch)
		}
	}
	r.armRound()
}

func (r *Replica) addToMempool(req *wire.Request) bool {
	key := reqKey{req.Client, req.Seq}
	if r.seen[key] || r.ledger.Executed(req) {
		return false
	}
	r.seen[key] = true
	r.mempool = append(r.mempool, req)
	return true
}

// Deliver implements core.Application.
func (r *Replica) Deliver(from ids.ProcessID, m wire.Message) {
	switch msg := m.(type) {
	case *wire.Request:
		if r.addToMempool(msg) {
			r.armRound()
		}
	case *wire.Batch:
		added := false
		for i := range msg.Reqs {
			req := msg.Reqs[i]
			if r.addToMempool(&req) {
				added = true
			}
		}
		if added {
			r.armRound()
		}
	case *wire.TMProposal:
		r.onProposal(msg)
	case *wire.TMPrevote:
		r.onPrevote(msg)
	case *wire.TMPrecommit:
		r.onPrecommit(msg)
	case *wire.TMDecided:
		r.onDecided(msg)
	}
}

// enterRound starts (height, round); the round machinery arms lazily.
func (r *Replica) enterRound(round uint64) {
	r.round = round
	r.state(round)
	r.armed = false
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	if !r.Participating() {
		return
	}
	r.armRound()
	r.replayPending()
}

// armRound activates the current round once there is something to
// decide: starts the round timer, proposes (as proposer) or expects the
// proposal (as follower).
func (r *Replica) armRound() {
	if !r.Participating() || r.armed {
		return
	}
	state := r.state(r.round)
	if state.proposal == nil && len(r.mempool) == 0 && r.lockedReq == nil {
		return // idle: nothing is expected from anyone
	}
	r.armed = true
	height, round := r.height, r.round
	if r.timer != nil {
		r.timer.Stop()
	}
	r.timer = r.env.After(r.opts.RoundTimeout, func() { r.onRoundTimeout(height, round) })

	proposer := r.Proposer(height, round)
	if proposer == r.env.ID() {
		r.maybePropose()
		return
	}
	if state.proposal == nil {
		r.detector.Expect(Scope, proposer, fmt.Sprintf("TM-PROPOSAL(h=%d,r=%d)", height, round),
			fd.Key{Type: wire.TypeTMProposal, A: height, B: round})
	}
}

// onRoundTimeout moves to the next round (and proposer) if the height
// has not decided.
func (r *Replica) onRoundTimeout(height, round uint64) {
	if r.height != height || r.round != round {
		return // stale timer
	}
	if st := r.rounds[round]; st != nil && st.step == stepDecided {
		return
	}
	r.env.Metrics().Inc("tendermint.round.timeout", 1)
	r.enterRound(round + 1)
}

// maybePropose proposes at the current round if this replica is the
// proposer and has not proposed yet: the locked value if any, else the
// oldest pending request.
func (r *Replica) maybePropose() {
	if !r.Participating() || r.Proposer(r.height, r.round) != r.env.ID() {
		return
	}
	state := r.state(r.round)
	if state.proposal != nil {
		return
	}
	var req *wire.Request
	switch {
	case r.lockedReq != nil:
		req = r.lockedReq
	case len(r.mempool) > 0:
		req = r.mempool[0]
	default:
		return
	}
	prop := &wire.TMProposal{
		Proposer: r.env.ID(),
		Height:   r.height,
		Round:    r.round,
		Req:      *req,
	}
	runtime.Sign(r.env, prop)
	r.env.Metrics().Inc("tendermint.proposal.sent", 1)
	for _, p := range r.active.Members {
		if p != r.env.ID() {
			r.env.Send(p, prop)
		}
	}
	r.onProposal(prop)
}

// buffer stores a message for a future round or height; far-future
// traffic is dropped (it will be recovered via TM-DECIDED catch-up).
func (r *Replica) buffer(height, round uint64, m wire.Message) bool {
	future := height > r.height || (height == r.height && round > r.round)
	if !future || height > r.height+1 || len(r.pendingMsgs) >= maxPending {
		return false
	}
	r.pendingMsgs = append(r.pendingMsgs, m)
	return true
}

// replayPending re-dispatches buffered messages; still-future ones are
// re-buffered by their handlers.
func (r *Replica) replayPending() {
	pending := r.pendingMsgs
	r.pendingMsgs = nil
	for _, m := range pending {
		r.Deliver(ids.None, m)
	}
}

func (r *Replica) onProposal(p *wire.TMProposal) {
	if r.buffer(p.Height, p.Round, p) {
		return
	}
	if p.Height != r.height || p.Round > r.round || !r.Participating() {
		return
	}
	if p.Proposer != r.Proposer(p.Height, p.Round) {
		// Signed proposal from a non-proposer: commission failure.
		r.detector.Detected(p.Proposer)
		return
	}
	state := r.state(p.Round)
	if state.proposal != nil {
		if !bytes.Equal(state.proposal.SigBytes(), p.SigBytes()) {
			// Two different signed proposals for one (height, round):
			// equivocation, provable to anyone holding both.
			r.env.Metrics().Inc("tendermint.detected.equivocation", 1)
			r.detector.Detected(p.Proposer)
		}
		return
	}
	state.proposal = p
	state.digest = crypto.Digest(p.SigBytes())
	r.addToMempool(&p.Req) // late proposals keep the request available
	r.armRound()
	// Expect prevotes from the other participants, then prevote.
	for _, k := range r.active.Members {
		if k == r.env.ID() || state.prevotes[k] {
			continue
		}
		r.expectVote(k, wire.TypeTMPrevote, p.Height, p.Round)
	}
	r.sendPrevote(state, p.Round)
	r.advance(state, p.Round)
}

func (r *Replica) expectVote(k ids.ProcessID, t wire.Type, height, round uint64) {
	r.detector.Expect(Scope, k, fmt.Sprintf("%s(h=%d,r=%d)", t, height, round),
		fd.Key{Type: t, A: height, B: round})
}

// sendPrevote votes for the round's proposal — unless this replica is
// locked on a different value (the locking rule).
func (r *Replica) sendPrevote(state *roundState, round uint64) {
	if state.prevoted || state.proposal == nil {
		return
	}
	if r.lockedReq != nil && !state.proposal.Req.Equal(r.lockedReq) {
		return // locked on a different value: abstain
	}
	state.prevoted = true
	state.prevotes[r.env.ID()] = true
	vote := &wire.TMPrevote{}
	vote.Replica = r.env.ID()
	vote.Slot = r.height
	vote.View = round
	vote.Digest = state.digest
	runtime.Sign(r.env, vote)
	r.env.Metrics().Inc("tendermint.prevote.sent", 1)
	for _, p := range r.active.Members {
		if p != r.env.ID() {
			r.env.Send(p, vote)
		}
	}
}

func (r *Replica) onPrevote(v *wire.TMPrevote) {
	if r.buffer(v.Slot, v.View, v) {
		return
	}
	if v.Slot != r.height || v.View > r.round || !r.Participating() || !r.active.Contains(v.Replica) {
		return
	}
	state := r.state(v.View)
	if state.digest != nil && !bytes.Equal(v.Digest, state.digest) {
		return // vote for a different proposal; ignored (not provable alone)
	}
	state.prevotes[v.Replica] = true
	r.advance(state, v.View)
}

func (r *Replica) onPrecommit(v *wire.TMPrecommit) {
	if r.buffer(v.Slot, v.View, v) {
		return
	}
	if v.Slot != r.height || v.View > r.round || !r.Participating() || !r.active.Contains(v.Replica) {
		return
	}
	state := r.state(v.View)
	if state.digest != nil && !bytes.Equal(v.Digest, state.digest) {
		return
	}
	state.precommits[v.Replica] = v
	r.advance(state, v.View)
}

// advance moves a round through prevote → precommit → decide once the
// full active quorum has voted at each step. A certificate from any
// round of the current height decides.
func (r *Replica) advance(state *roundState, round uint64) {
	if state.proposal == nil {
		return
	}
	q := len(r.active.Members)
	if state.step < stepPrecommit && state.prevoted && len(state.prevotes) >= q {
		state.step = stepPrecommit
		// Lock the value (Tendermint's safety rule): from now on this
		// replica prevotes only this request at this height.
		req := state.proposal.Req
		r.lockedReq = &req
		for _, k := range r.active.Members {
			if k == r.env.ID() {
				continue
			}
			if _, ok := state.precommits[k]; ok {
				continue
			}
			r.expectVote(k, wire.TypeTMPrecommit, r.height, round)
		}
		state.precommitted = true
		vote := &wire.TMPrecommit{}
		vote.Replica = r.env.ID()
		vote.Slot = r.height
		vote.View = round
		vote.Digest = state.digest
		runtime.Sign(r.env, vote)
		state.precommits[r.env.ID()] = vote
		r.env.Metrics().Inc("tendermint.precommit.sent", 1)
		for _, p := range r.active.Members {
			if p != r.env.ID() {
				r.env.Send(p, vote)
			}
		}
	}
	if state.step == stepPrecommit && state.precommitted && len(state.precommits) >= q {
		state.step = stepDecided
		cert := &wire.TMDecided{
			Height:   r.height,
			Round:    round,
			Proposal: *state.proposal,
		}
		for _, p := range r.active.Members {
			cert.Precommits = append(cert.Precommits, *state.precommits[p])
		}
		r.applyDecision(cert)
	}
}

// onDecided verifies and applies a catch-up certificate.
func (r *Replica) onDecided(cert *wire.TMDecided) {
	if cert.Height < r.height {
		return // already applied
	}
	if err := r.verifyCert(cert); err != nil {
		r.env.Metrics().Inc("tendermint.cert.rejected", 1)
		return
	}
	if cert.Height > r.height {
		if len(r.futureCerts) < maxPending {
			r.futureCerts[cert.Height] = cert
		}
		return
	}
	r.env.Metrics().Inc("tendermint.catchup.applied", 1)
	r.applyDecision(cert)
}

// verifyCert checks a certificate's self-contained justification: a
// validly signed proposal and n−f distinct, validly signed precommits
// matching its digest. n−f signers include at least one correct
// process; by the locking rule a correct precommit pins the height's
// only decidable value, so the certificate's value is the decided one.
func (r *Replica) verifyCert(cert *wire.TMDecided) error {
	if cert.Proposal.Height != cert.Height || cert.Proposal.Round != cert.Round {
		return fmt.Errorf("proposal labeled (%d,%d), certificate (%d,%d)",
			cert.Proposal.Height, cert.Proposal.Round, cert.Height, cert.Round)
	}
	if err := runtime.Verify(r.env, &cert.Proposal); err != nil {
		return fmt.Errorf("proposal signature: %w", err)
	}
	digest := crypto.Digest(cert.Proposal.SigBytes())
	signers := ids.NewProcSet()
	for i := range cert.Precommits {
		v := &cert.Precommits[i]
		if v.Slot != cert.Height || v.View != cert.Round || !bytes.Equal(v.Digest, digest) {
			continue
		}
		if !v.Replica.Valid(r.cfg.N) || signers.Contains(v.Replica) {
			continue
		}
		if runtime.Verify(r.env, v) != nil {
			continue
		}
		signers.Add(v.Replica)
	}
	if signers.Len() < r.cfg.Q() {
		return fmt.Errorf("only %d valid precommits, need %d", signers.Len(), r.cfg.Q())
	}
	return nil
}

// applyDecision executes the decided request (nothing runs if it
// executed at an earlier height), records the certificate, notifies
// passive replicas, and moves to the next height.
func (r *Replica) applyDecision(cert *wire.TMDecided) {
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	r.detector.CancelScope(Scope)
	req := cert.Proposal.Req
	r.ledger.Execute(r.height, []*wire.Request{&req})
	delete(r.seen, reqKey{req.Client, req.Seq})
	r.certs[r.height] = cert
	r.env.Metrics().Inc("tendermint.decided", 1)
	// Lazy replication: the deciding round's proposer ships the
	// certificate to the passive replicas (one message per passive
	// process per height; they verify it themselves).
	if r.Participating() && r.Proposer(cert.Height, cert.Round) == r.env.ID() {
		for _, p := range r.cfg.All() {
			if !r.active.Contains(p) {
				r.env.Send(p, cert)
			}
		}
	}
	// Drop the decided request from the mempool.
	kept := r.mempool[:0]
	for _, pending := range r.mempool {
		if !pending.Equal(&req) {
			kept = append(kept, pending)
		}
	}
	r.mempool = kept

	r.height++
	r.round = 0
	r.rounds = make(map[uint64]*roundState)
	r.lockedReq = nil
	// A buffered certificate may already cover the next height.
	if next, ok := r.futureCerts[r.height]; ok {
		delete(r.futureCerts, r.height)
		r.applyDecision(next)
		return
	}
	r.enterRound(0)
}

func (r *Replica) state(round uint64) *roundState {
	st, ok := r.rounds[round]
	if !ok {
		st = &roundState{
			prevotes:   make(map[ids.ProcessID]bool),
			precommits: make(map[ids.ProcessID]*wire.TMPrecommit),
			step:       stepPropose,
		}
		r.rounds[round] = st
	}
	return st
}

// NewQSNode composes a consensus replica with the full quorum-selection
// stack of Fig 1.
func NewQSNode(opts Options, nodeOpts core.NodeOptions) (*core.Node, *Replica) {
	r := NewReplica(opts)
	nodeOpts.App = r
	return core.NewNode(nodeOpts), r
}

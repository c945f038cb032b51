// Package fd implements the paper's failure-detection module (§IV-B):
// a Byzantine-environment failure detector driven by expectations the
// application issues.
//
// Interface mapping (paper event → API):
//
//	⟨RECEIVE, m, i⟩    → Detector.Receive (called by the network layer)
//	⟨DELIVER, m, i⟩    → the Deliver callback (to application/selector)
//	⟨EXPECT, P, i⟩     → Detector.Expect(scope, i, desc, key), where P
//	                     is a Key: a message type plus two identifiers
//	                     the message carries, sent by its signer i
//	⟨SUSPECTED, S⟩     → the OnSuspect callback (whole current set S)
//	⟨DETECTED, i⟩      → Detector.Detected (permanent, from application)
//	⟨CANCEL⟩           → Detector.Cancel / Detector.CancelScope
//
// Every predicate the protocols here expect has that shape — "the
// COMMIT of view v, slot s, from replica k", "the FOLLOWERS of epoch e
// from leader l", "any heartbeat from p" — so the detector indexes the
// outstanding expectations by (sender, key), and matching a delivered
// message, expiring an expectation and asking whether a process is
// suspected each cost O(1), however many expectations are outstanding.
//
// Properties (and how they are achieved):
//
//   - Expectation completeness: every uncanceled expectation either
//     matches a delivered message or its timer fires and the sender is
//     suspected (at least once).
//   - Detection completeness: Detected(i) suspects i forever.
//   - Eventual strong accuracy: a suspicion raised by a timeout is
//     canceled when a matching message later arrives, and the timeout
//     for that sender doubles — the standard eventual-synchrony
//     construction, so false suspicions eventually cease (ablated in
//     experiment E10).
//
// Scopes: the paper's ⟨CANCEL⟩ cancels "previously issued
// expectations". Because several modules of one process (application,
// follower selection) issue expectations independently, expectations
// carry a scope tag and each module cancels only its own scope;
// Cancel() clears every scope.
package fd

import (
	"fmt"
	"slices"
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// Key is the paper's P: the message an expectation waits for, named by
// its type and two identifiers the message carries — view and slot,
// height and round, or an epoch or view alone (B zero). A heartbeat's
// key is its type alone: any heartbeat from the sender will do.
type Key struct {
	Type wire.Type
	A, B uint64
}

// keyOf returns the key m satisfies, and false for a message no
// expectation waits for. The sender needs no check of its own: every
// keyed message but the heartbeat is signed, its signer is the replica,
// leader or proposer field, and Receive attributes it to that signer.
func keyOf(m wire.Message) (Key, bool) {
	switch v := m.(type) {
	case *wire.Heartbeat:
		return Key{Type: wire.TypeHeartbeat}, true
	case *wire.Commit:
		return Key{wire.TypeCommit, v.View, v.Slot}, true
	case *wire.Prepare:
		return Key{wire.TypePrepare, v.View, v.Slot}, true
	case *wire.NewView:
		return Key{Type: wire.TypeNewView, A: v.ViewNum}, true
	case *wire.Followers:
		return Key{Type: wire.TypeFollowers, A: v.Epoch}, true
	case *wire.PBFTPrepare:
		return Key{wire.TypePBFTPrepare, v.View, v.Slot}, true
	case *wire.PBFTCommit:
		return Key{wire.TypePBFTCommit, v.View, v.Slot}, true
	case *wire.TMProposal:
		return Key{wire.TypeTMProposal, v.Height, v.Round}, true
	case *wire.TMPrevote:
		return Key{wire.TypeTMPrevote, v.Slot, v.View}, true
	case *wire.TMPrecommit:
		return Key{wire.TypeTMPrecommit, v.Slot, v.View}, true
	}
	return Key{}, false
}

// Deliver receives authenticated messages (the ⟨DELIVER, m, i⟩ event).
type Deliver func(from ids.ProcessID, m wire.Message)

// OnSuspect receives the full current suspicion set whenever it changes
// (the ⟨SUSPECTED, S⟩ event).
type OnSuspect func(suspected ids.ProcSet)

// Options tunes a Detector.
type Options struct {
	// BaseTimeout is the initial per-sender expectation timeout. The
	// zero value selects DefaultBaseTimeout.
	BaseTimeout time.Duration
	// MaxTimeout caps adaptive growth. Zero selects DefaultMaxTimeout.
	MaxTimeout time.Duration
	// Adaptive doubles a sender's timeout whenever a suspicion against
	// it proves false. Disabling it (for the E10 ablation) keeps
	// timeouts fixed and sacrifices eventual strong accuracy under
	// late synchrony.
	Adaptive bool
}

// Default timeouts; chosen ≈ 4× and 100× the simulator's default link
// latency.
const (
	DefaultBaseTimeout = 40 * time.Millisecond
	DefaultMaxTimeout  = 1 * time.Second
)

// DefaultOptions returns the standard adaptive configuration.
func DefaultOptions() Options {
	return Options{BaseTimeout: DefaultBaseTimeout, MaxTimeout: DefaultMaxTimeout, Adaptive: true}
}

// ScaledTo returns o sized for links whose worst one-way delay is
// oneWay. A base timeout under 4×oneWay (a heartbeat round trip with
// slack) would turn every heartbeat on a WAN link into a false
// suspicion, so it is raised to that, and the adaptive cap to at least
// 10× the new base. Options that already fit are returned unchanged.
func (o Options) ScaledTo(oneWay time.Duration) Options {
	if 4*oneWay > o.BaseTimeout {
		o.BaseTimeout = 4 * oneWay
		if 10*o.BaseTimeout > o.MaxTimeout {
			o.MaxTimeout = 10 * o.BaseTimeout
		}
	}
	return o
}

// target is what an expectation is indexed by: the expected sender and
// the key of the message it must send.
type target struct {
	from ids.ProcessID
	key  Key
}

type expectation struct {
	target
	scope    string
	desc     string
	timer    runtime.Timer
	issuedAt time.Duration // env.Now() at Expect, for detection latency
	overdue  bool          // timer fired; suspicion raised and still matchable
	// rearm is the heartbeater whose standing expectation this is: a
	// match re-issues it.
	rearm *Heartbeater
}

// Detector is the failure-detector module of one process.
type Detector struct {
	env       runtime.Env
	opts      Options
	deliver   Deliver
	onSuspect OnSuspect

	// expects holds the outstanding expectations by target, in issue
	// order: one delivery satisfies all of a target's. overdue counts
	// the overdue ones of each sender, at index sender−1; pending counts
	// them all.
	expects  map[target][]*expectation
	overdue  []int
	pending  int
	detected map[ids.ProcessID]bool
	timeout  map[ids.ProcessID]time.Duration

	// raised/canceled counters, used to distinguish the paper's
	// "eventual" from "permanent" detection in experiments.
	raised   map[ids.ProcessID]int
	canceled map[ids.ProcessID]int

	// firstSuspectedAt feeds the suspected→detected span: the clock at
	// the first still-standing suspicion of each process.
	firstSuspectedAt map[ids.ProcessID]time.Duration

	// closed marks the detector torn down: timers are stopped and new
	// expectations are refused.
	closed bool

	m detectorMetrics
}

// detectorMetrics are the series touched once per received message or
// per expectation, resolved at Bind. The rarer ones (suspicions,
// detections) stay name-keyed at their call sites.
type detectorMetrics struct {
	issued, matched, expired, canceled *metrics.CounterHandle

	pending *metrics.GaugeHandle // fd.expectations.pending{node}
}

// New returns an unbound Detector; call Bind before use.
func New(opts Options) *Detector {
	if opts.BaseTimeout <= 0 {
		opts.BaseTimeout = DefaultBaseTimeout
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = DefaultMaxTimeout
	}
	if opts.MaxTimeout < opts.BaseTimeout {
		opts.MaxTimeout = opts.BaseTimeout
	}
	return &Detector{
		opts:             opts,
		expects:          make(map[target][]*expectation),
		detected:         make(map[ids.ProcessID]bool),
		timeout:          make(map[ids.ProcessID]time.Duration),
		raised:           make(map[ids.ProcessID]int),
		canceled:         make(map[ids.ProcessID]int),
		firstSuspectedAt: make(map[ids.ProcessID]time.Duration),
	}
}

// Bind attaches the detector to its process environment and callbacks.
// deliver must not be nil; onSuspect may be nil when a caller polls
// Suspected instead.
//
// Heartbeats are consumed here: they match expectations like any other
// message but are never handed to deliver — they carry no payload for
// the layers above, and filtering them once inside the detector means
// no composition layer repeats the check.
func (d *Detector) Bind(env runtime.Env, deliver Deliver, onSuspect OnSuspect) {
	if deliver == nil {
		panic("fd: Bind requires a deliver callback")
	}
	d.env = env
	d.deliver = deliver
	d.onSuspect = onSuspect
	reg := env.Metrics()
	d.m = detectorMetrics{
		issued:   reg.CounterHandle("fd.expectation.issued"),
		matched:  reg.CounterHandle("fd.expectation.matched"),
		expired:  reg.CounterHandle("fd.expectation.expired"),
		canceled: reg.CounterHandle("fd.expectation.canceled"),
		pending:  runtime.NodeGauge(env, "fd.expectations.pending"),
	}
}

// Receive is the network entry point (⟨RECEIVE, m, i⟩): it matches
// expectations and delivers. The message is already authenticated: both
// backends check content signatures where a frame lands
// (runtime.Authenticate) and drop forgeries there, so the detector
// never sees one.
//
// For content-signed messages the attributed sender is the signer, not
// the link-level sender: protocols forward signed messages on behalf of
// their originator (UPDATE in Algorithm 1 line 23, FOLLOWERS in
// Algorithm 2 line 36), and a forwarded copy must still satisfy an
// expectation against the originator — that indirect propagation is
// what Lemmas 1 and 6 count on.
func (d *Detector) Receive(from ids.ProcessID, m wire.Message) {
	if s, ok := m.(wire.Signed); ok {
		from = s.Signer()
	}
	d.match(from, m)
	if IsHeartbeat(m) {
		return // consumed by the expectations; nothing above wants it
	}
	d.deliver(from, m)
}

// match consumes every outstanding expectation the message satisfies
// and cancels suspicions that are no longer justified.
func (d *Detector) match(from ids.ProcessID, m wire.Message) {
	key, ok := keyOf(m)
	if !ok {
		return
	}
	t := target{from, key}
	list := d.expects[t]
	if len(list) == 0 {
		return
	}
	delete(d.expects, t)
	matchedOverdue := false
	for _, e := range list {
		if e.rearm != nil {
			e.rearm.rearmAfter(from)
		}
		matchedOverdue = matchedOverdue || e.overdue
		d.retire(e)
		d.m.matched.Inc()
	}
	if matchedOverdue {
		// The suspicion against from proved false: back off its
		// timeout (eventual strong accuracy) and re-publish if it is
		// no longer suspected.
		if d.opts.Adaptive {
			t := d.timeoutFor(from) * 2
			if t > d.opts.MaxTimeout {
				t = d.opts.MaxTimeout
			}
			d.timeout[from] = t
		}
		if !d.suspectedNow(from) {
			d.canceled[from]++
			d.env.Metrics().Inc("fd.suspicion.canceled", 1)
			delete(d.firstSuspectedAt, from)
			runtime.Emit(d.env, obs.Event{Type: obs.TypeSuspicionCleared, Subject: from})
			d.publish()
		}
	}
	d.updatePendingGauge()
}

// Expect registers the paper's ⟨EXPECT, P, i⟩: a message with key is
// expected from process from. scope tags the issuing module for
// CancelScope; desc becomes the Detail of its EXPECT and SUSPECTED
// events. If no matching message is delivered within the sender's
// current timeout, from is suspected.
// After Close, Expect is a no-op: a stopping node arms no new timers.
func (d *Detector) Expect(scope string, from ids.ProcessID, desc string, key Key) {
	d.expect(scope, from, desc, key, nil)
}

// expect is Expect for the heartbeater too: a non-nil rearm re-issues
// the expectation whenever it is matched.
func (d *Detector) expect(scope string, from ids.ProcessID, desc string, key Key, rearm *Heartbeater) {
	if from < 1 {
		panic(fmt.Sprintf("fd: Expect against %s, outside Π", from))
	}
	if d.closed {
		return
	}
	e := &expectation{target: target{from, key}, scope: scope, desc: desc, rearm: rearm, issuedAt: d.env.Now()}
	e.timer = d.env.After(d.timeoutFor(from), func() { d.expire(e) })
	for int(from) > len(d.overdue) {
		d.overdue = append(d.overdue, 0)
	}
	d.expects[e.target] = append(d.expects[e.target], e)
	d.pending++
	d.m.issued.Inc()
	runtime.Emit(d.env, obs.Event{Type: obs.TypeExpect, Subject: from, Detail: scope + ":" + desc})
	d.updatePendingGauge()
}

// expire fires when an expectation's timer lapses unmatched.
func (d *Detector) expire(e *expectation) {
	// The expectation may have been removed (matched or canceled)
	// after the timer fired but before this callback ran.
	if e.overdue || !slices.Contains(d.expects[e.target], e) {
		return
	}
	alreadySuspected := d.suspectedNow(e.from)
	e.overdue = true
	d.overdue[e.from-1]++
	d.m.expired.Inc()
	if !alreadySuspected {
		d.raised[e.from]++
		d.env.Metrics().Inc("fd.suspicion.raised", 1)
		// Detection latency: expectation issue → suspicion raised.
		d.env.Metrics().Observe("fd.detection.latency.seconds",
			(d.env.Now() - e.issuedAt).Seconds())
		if _, ok := d.firstSuspectedAt[e.from]; !ok {
			d.firstSuspectedAt[e.from] = d.env.Now()
		}
		runtime.Emit(d.env, obs.Event{Type: obs.TypeSuspected, Subject: e.from, Detail: e.desc})
		d.publish()
	}
}

// retire takes e out of the outstanding count: its timer is stopped and
// an overdue e no longer suspects its sender. The caller removes it from
// expects.
func (d *Detector) retire(e *expectation) {
	if e.timer != nil {
		e.timer.Stop()
	}
	if e.overdue {
		d.overdue[e.from-1]--
	}
	d.pending--
}

// Detected is the paper's ⟨DETECTED, i⟩: the application found a proof
// of misbehavior; i is suspected forever.
func (d *Detector) Detected(i ids.ProcessID) {
	if d.detected[i] {
		return
	}
	d.detected[i] = true
	d.raised[i]++
	d.env.Metrics().Inc("fd.detected", 1)
	// Suspected → detected span, when a timeout suspicion preceded the
	// proof of misbehavior.
	if at, ok := d.firstSuspectedAt[i]; ok {
		d.env.Metrics().Observe("fd.suspected.to.detected.seconds",
			(d.env.Now() - at).Seconds())
		delete(d.firstSuspectedAt, i)
	}
	runtime.Emit(d.env, obs.Event{Type: obs.TypeDetected, Subject: i})
	d.publish()
}

// Cancel clears every outstanding expectation in every scope and the
// suspicions they caused (the paper's ⟨CANCEL⟩, issued e.g. during view
// changes when pending PREPAREs will legitimately never arrive).
// Detected processes remain suspected forever.
func (d *Detector) Cancel() { d.cancelWhere(func(*expectation) bool { return true }) }

// CancelScope clears the expectations (and their suspicions) issued
// under one scope tag, leaving other modules' expectations standing.
func (d *Detector) CancelScope(scope string) {
	d.cancelWhere(func(e *expectation) bool { return e.scope == scope })
}

// cancelWhere drops the expectations drop selects. It visits targets in
// map order: stopping timers and counting commute, so nothing
// observable depends on that order.
func (d *Detector) cancelWhere(drop func(*expectation) bool) {
	before := d.Suspected()
	dropped := 0
	for t, list := range d.expects {
		kept := list[:0]
		for _, e := range list {
			if !drop(e) {
				kept = append(kept, e)
				continue
			}
			d.retire(e)
			d.m.canceled.Inc()
			dropped++
		}
		clear(list[len(kept):])
		if len(kept) == 0 {
			delete(d.expects, t)
		} else {
			d.expects[t] = kept
		}
	}
	if dropped > 0 {
		runtime.Emit(d.env, obs.Event{Type: obs.TypeCancel,
			Detail: fmt.Sprintf("canceled=%d", dropped)})
	}
	if !d.Suspected().Equal(before) {
		for _, p := range before.Sorted() {
			if !d.suspectedNow(p) {
				d.canceled[p]++
				delete(d.firstSuspectedAt, p)
				runtime.Emit(d.env, obs.Event{Type: obs.TypeSuspicionCleared, Subject: p})
			}
		}
		d.publish()
	}
	d.updatePendingGauge()
}

// Close tears the detector down as part of node shutdown: every
// outstanding expectation timer is stopped and the expectations are
// dropped without publishing — this is lifecycle teardown, not the
// protocol's ⟨CANCEL⟩, so no events are emitted and no suspicion set is
// re-broadcast. Subsequent Expect calls are no-ops; Close is
// idempotent.
func (d *Detector) Close() {
	if d.closed {
		return
	}
	d.closed = true
	for _, list := range d.expects {
		for _, e := range list {
			d.retire(e)
		}
	}
	clear(d.expects)
}

// Suspected returns the current suspicion set S: every process with an
// overdue expectation plus every detected process.
func (d *Detector) Suspected() ids.ProcSet {
	s := ids.NewProcSet()
	for p := range d.detected {
		s.Add(p)
	}
	for i, n := range d.overdue {
		if n > 0 {
			s.Add(ids.ProcessID(i + 1))
		}
	}
	return s
}

// IsSuspected reports whether i is currently suspected.
func (d *Detector) IsSuspected(i ids.ProcessID) bool { return d.suspectedNow(i) }

// IsDetected reports whether i has been permanently detected.
func (d *Detector) IsDetected(i ids.ProcessID) bool { return d.detected[i] }

// SuspicionsRaised returns how many times i has been newly suspected —
// the experiment harness uses it to distinguish the paper's eventual
// detection (raised and canceled repeatedly) from permanent detection.
func (d *Detector) SuspicionsRaised(i ids.ProcessID) int { return d.raised[i] }

// SuspicionsCanceled returns how many suspicions against i were
// canceled again.
func (d *Detector) SuspicionsCanceled(i ids.ProcessID) int { return d.canceled[i] }

// PendingExpectations returns the number of outstanding (not yet
// matched or canceled) expectations, overdue ones included.
func (d *Detector) PendingExpectations() int { return d.pending }

func (d *Detector) suspectedNow(i ids.ProcessID) bool {
	if d.detected[i] {
		return true
	}
	return i >= 1 && int(i) <= len(d.overdue) && d.overdue[i-1] > 0
}

// updatePendingGauge tracks the outstanding-expectation count per node.
func (d *Detector) updatePendingGauge() {
	d.m.pending.Set(float64(d.pending))
}

func (d *Detector) timeoutFor(i ids.ProcessID) time.Duration {
	if t, ok := d.timeout[i]; ok {
		return t
	}
	return d.opts.BaseTimeout
}

func (d *Detector) publish() {
	if d.onSuspect == nil {
		return
	}
	d.onSuspect(d.Suspected())
}

// String summarizes the detector state for debugging.
func (d *Detector) String() string {
	return fmt.Sprintf("fd{suspected=%s pending=%d}", d.Suspected(), d.pending)
}

package fd

// Differential tests: the keyed index must be observably identical to
// the predicate-scan Detector it replaced. The reference below is a
// faithful copy of that detector and its heartbeater (types renamed),
// driven through the predicates the protocols used to pass it.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// refPredicate is the reference's P: it decides whether a delivered
// message satisfies an expectation.
type refPredicate func(m wire.Message) bool

type refExpectation struct {
	scope    string
	from     ids.ProcessID
	desc     string
	pred     refPredicate
	timer    runtime.Timer
	issuedAt time.Duration // env.Now() at Expect, for detection latency
	overdue  bool          // timer fired; suspicion raised and still matchable
}

// Detector is the failure-detector module of one process.
type refDetector struct {
	env       runtime.Env
	opts      Options
	deliver   Deliver
	onSuspect OnSuspect

	// expects holds the outstanding expectations of each sender, at
	// index sender−1, in issue order: a message is matched against its
	// sender's list alone. pending counts them all.
	expects  [][]*refExpectation
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

// New returns an unbound Detector; call Bind before use.
func newRefDetector(opts Options) *refDetector {
	if opts.BaseTimeout <= 0 {
		opts.BaseTimeout = DefaultBaseTimeout
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = DefaultMaxTimeout
	}
	if opts.MaxTimeout < opts.BaseTimeout {
		opts.MaxTimeout = opts.BaseTimeout
	}
	return &refDetector{
		opts:             opts,
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
func (d *refDetector) Bind(env runtime.Env, deliver Deliver, onSuspect OnSuspect) {
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
func (d *refDetector) Receive(from ids.ProcessID, m wire.Message) {
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
func (d *refDetector) match(from ids.ProcessID, m wire.Message) {
	list := d.of(from)
	if len(list) == 0 {
		return
	}
	matchedOverdue := false
	kept := list[:0]
	for _, e := range list {
		if e.pred(m) {
			if e.timer != nil {
				e.timer.Stop()
			}
			if e.overdue {
				matchedOverdue = true
			}
			d.m.matched.Inc()
			continue
		}
		kept = append(kept, e)
	}
	d.keep(from, list, kept)
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

// Expect registers the paper's ⟨EXPECT, P, i⟩: a message matching pred
// is expected from process from. scope tags the issuing module for
// CancelScope; desc becomes the Detail of its EXPECT and SUSPECTED
// events. If no matching message is delivered within the sender's
// current timeout, from is suspected.
// After Close, Expect is a no-op: a stopping node arms no new timers.
func (d *refDetector) Expect(scope string, from ids.ProcessID, desc string, pred refPredicate) {
	if pred == nil {
		panic("fd: Expect requires a predicate")
	}
	if from < 1 {
		panic(fmt.Sprintf("fd: Expect against %s, outside Π", from))
	}
	if d.closed {
		return
	}
	e := &refExpectation{scope: scope, from: from, desc: desc, pred: pred, issuedAt: d.env.Now()}
	e.timer = d.env.After(d.timeoutFor(from), func() { d.expire(e) })
	for int(from) > len(d.expects) {
		d.expects = append(d.expects, nil)
	}
	d.expects[from-1] = append(d.expects[from-1], e)
	d.pending++
	d.m.issued.Inc()
	runtime.Emit(d.env, obs.Event{Type: obs.TypeExpect, Subject: from, Detail: scope + ":" + desc})
	d.updatePendingGauge()
}

// expire fires when an expectation's timer lapses unmatched.
func (d *refDetector) expire(e *refExpectation) {
	// The expectation may have been removed (matched or canceled)
	// after the timer fired but before this callback ran.
	found := false
	for _, cur := range d.of(e.from) {
		if cur == e {
			found = true
			break
		}
	}
	if !found || e.overdue {
		return
	}
	alreadySuspected := d.suspectedNow(e.from)
	e.overdue = true
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

// Detected is the paper's ⟨DETECTED, i⟩: the application found a proof
// of misbehavior; i is suspected forever.
func (d *refDetector) Detected(i ids.ProcessID) {
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
func (d *refDetector) Cancel() { d.cancelWhere(func(*refExpectation) bool { return true }) }

// CancelScope clears the expectations (and their suspicions) issued
// under one scope tag, leaving other modules' expectations standing.
func (d *refDetector) CancelScope(scope string) {
	d.cancelWhere(func(e *refExpectation) bool { return e.scope == scope })
}

func (d *refDetector) cancelWhere(drop func(*refExpectation) bool) {
	before := d.Suspected()
	dropped := 0
	for i, list := range d.expects {
		kept := list[:0]
		for _, e := range list {
			if drop(e) {
				if e.timer != nil {
					e.timer.Stop()
				}
				d.m.canceled.Inc()
				dropped++
				continue
			}
			kept = append(kept, e)
		}
		d.keep(ids.ProcessID(i+1), list, kept)
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
func (d *refDetector) Close() {
	if d.closed {
		return
	}
	d.closed = true
	for _, list := range d.expects {
		for _, e := range list {
			if e.timer != nil {
				e.timer.Stop()
			}
		}
	}
	d.expects, d.pending = nil, 0
}

// Suspected returns the current suspicion set S: every process with an
// overdue expectation plus every detected process.
func (d *refDetector) Suspected() ids.ProcSet {
	s := ids.NewProcSet()
	for p := range d.detected {
		s.Add(p)
	}
	for _, list := range d.expects {
		for _, e := range list {
			if e.overdue {
				s.Add(e.from)
				break
			}
		}
	}
	return s
}

// IsSuspected reports whether i is currently suspected.
func (d *refDetector) IsSuspected(i ids.ProcessID) bool { return d.suspectedNow(i) }

// IsDetected reports whether i has been permanently detected.
func (d *refDetector) IsDetected(i ids.ProcessID) bool { return d.detected[i] }

// SuspicionsRaised returns how many times i has been newly suspected —
// the experiment harness uses it to distinguish the paper's eventual
// detection (raised and canceled repeatedly) from permanent detection.
func (d *refDetector) SuspicionsRaised(i ids.ProcessID) int { return d.raised[i] }

// SuspicionsCanceled returns how many suspicions against i were
// canceled again.
func (d *refDetector) SuspicionsCanceled(i ids.ProcessID) int { return d.canceled[i] }

// PendingExpectations returns the number of outstanding (not yet
// matched or canceled) expectations, overdue ones included.
func (d *refDetector) PendingExpectations() int { return d.pending }

func (d *refDetector) suspectedNow(i ids.ProcessID) bool {
	if d.detected[i] {
		return true
	}
	for _, e := range d.of(i) {
		if e.overdue {
			return true
		}
	}
	return false
}

// of returns i's outstanding expectations, in issue order.
func (d *refDetector) of(i ids.ProcessID) []*refExpectation {
	if i < 1 || int(i) > len(d.expects) {
		return nil
	}
	return d.expects[i-1]
}

// keep replaces i's list with kept, a prefix-filtered copy made in
// list's own array, and clears the tail so the dropped expectations
// (and their predicates) can be collected.
func (d *refDetector) keep(i ids.ProcessID, list, kept []*refExpectation) {
	clear(list[len(kept):])
	d.pending -= len(list) - len(kept)
	d.expects[i-1] = kept
}

// updatePendingGauge tracks the outstanding-expectation count per node.
func (d *refDetector) updatePendingGauge() {
	d.m.pending.Set(float64(d.pending))
}

func (d *refDetector) timeoutFor(i ids.ProcessID) time.Duration {
	if t, ok := d.timeout[i]; ok {
		return t
	}
	return d.opts.BaseTimeout
}

func (d *refDetector) publish() {
	if d.onSuspect == nil {
		return
	}
	d.onSuspect(d.Suspected())
}

// String summarizes the detector state for debugging.
func (d *refDetector) String() string {
	return fmt.Sprintf("fd{suspected=%s pending=%d}", d.Suspected(), d.pending)
}

type refHeartbeater struct {
	env      runtime.Env
	detector *refDetector
	period   time.Duration
	seq      uint64
	stopped  bool

	// tickTimer and armTimer are the pending periodic timers, kept so
	// Stop can cancel them instead of leaving them to fire into a
	// stopped node.
	tickTimer runtime.Timer
	armTimer  runtime.Timer
}

// NewHeartbeater creates a heartbeater sending every period. Start must
// be called after the detector is bound.
func newRefHeartbeater(detector *refDetector, period time.Duration) *refHeartbeater {
	if period <= 0 {
		panic("fd: heartbeat period must be positive")
	}
	return &refHeartbeater{detector: detector, period: period}
}

// Start begins sending heartbeats and issues the initial standing
// expectations for every other process. The first expectations are
// armed one period late: on real transports peers start at slightly
// different times and connections have to be dialed first, and a
// suspicion burst at startup would churn quorums for no reason.
func (h *refHeartbeater) Start(env runtime.Env) {
	h.env = env
	h.stopped = false
	h.armTimer = env.After(h.period, func() {
		h.armTimer = nil
		if h.stopped {
			return
		}
		for _, p := range env.Config().All() {
			if p != env.ID() {
				h.expectFrom(p)
			}
		}
	})
	h.tick()
}

// Stop ends heartbeat sending and cancels the pending tick and
// expectation-arming timers, so a stopped node holds no live timers.
// The expectations of other processes then see this process as silent —
// also used to inject crash failures in tests. Stop is idempotent.
func (h *refHeartbeater) Stop() {
	h.stopped = true
	if h.tickTimer != nil {
		h.tickTimer.Stop()
		h.tickTimer = nil
	}
	if h.armTimer != nil {
		h.armTimer.Stop()
		h.armTimer = nil
	}
}

func (h *refHeartbeater) tick() {
	if h.stopped {
		return
	}
	h.seq++
	hb := &wire.Heartbeat{From: h.env.ID(), Seq: h.seq}
	runtime.Broadcast(h.env, hb, false)
	h.tickTimer = h.env.After(h.period, h.tick)
}

// expectFrom issues a standing heartbeat expectation for p: whenever it
// is matched, the next one is issued, so the expectation never runs
// out. The predicate accepts any heartbeat from p — which heartbeat
// arrives is irrelevant, only that p keeps sending.
func (h *refHeartbeater) expectFrom(p ids.ProcessID) {
	if h.stopped {
		return
	}
	matched := false
	h.detector.Expect(HeartbeatScope, p, "heartbeat", func(m wire.Message) bool {
		if _, ok := m.(*wire.Heartbeat); !ok {
			return false
		}
		if matched {
			return false // consume exactly one heartbeat per expectation
		}
		matched = true
		// Re-arm on the process's event loop after this delivery
		// completes.
		h.env.After(0, func() { h.expectFrom(p) })
		return true
	})
}

// refPredicateFor is the predicate a protocol passed the reference for
// an expectation of key from k: the eight closures the keys replaced,
// each testing the type, the sender field and the two identifiers. A
// heartbeat key stands for fd.IsHeartbeat, the tests' predicate.
func refPredicateFor(k ids.ProcessID, key Key) refPredicate {
	t, a, b := key.Type, key.A, key.B
	switch t {
	case wire.TypeCommit:
		return func(m wire.Message) bool {
			c, ok := m.(*wire.Commit)
			return ok && c.Replica == k && c.View == a && c.Slot == b
		}
	case wire.TypePrepare:
		return func(m wire.Message) bool {
			p, ok := m.(*wire.Prepare)
			return ok && p.Leader == k && p.View == a && p.Slot == b
		}
	case wire.TypeNewView:
		return func(m wire.Message) bool {
			nv, ok := m.(*wire.NewView)
			return ok && nv.Leader == k && nv.ViewNum == a
		}
	case wire.TypeFollowers:
		return func(m wire.Message) bool {
			f, ok := m.(*wire.Followers)
			return ok && f.Leader == k && f.Epoch == a
		}
	case wire.TypePBFTPrepare, wire.TypePBFTCommit:
		return func(m wire.Message) bool {
			switch v := m.(type) {
			case *wire.PBFTPrepare:
				return t == wire.TypePBFTPrepare && v.Replica == k && v.View == a && v.Slot == b
			case *wire.PBFTCommit:
				return t == wire.TypePBFTCommit && v.Replica == k && v.View == a && v.Slot == b
			default:
				return false
			}
		}
	case wire.TypeTMProposal:
		return func(m wire.Message) bool {
			p, ok := m.(*wire.TMProposal)
			return ok && p.Proposer == k && p.Height == a && p.Round == b
		}
	case wire.TypeTMPrevote, wire.TypeTMPrecommit:
		return func(m wire.Message) bool {
			switch v := m.(type) {
			case *wire.TMPrevote:
				return t == wire.TypeTMPrevote && v.Replica == k && v.Slot == a && v.View == b
			case *wire.TMPrecommit:
				return t == wire.TypeTMPrecommit && v.Replica == k && v.Slot == a && v.View == b
			default:
				return false
			}
		}
	case wire.TypeHeartbeat:
		return IsHeartbeat
	}
	panic(fmt.Sprintf("no reference predicate for %s", t))
}

// keyTypes are the message types expectations wait for; the streams
// below draw keys and messages from them.
var keyTypes = []wire.Type{
	wire.TypeHeartbeat, wire.TypeCommit, wire.TypePrepare, wire.TypeNewView,
	wire.TypeFollowers, wire.TypePBFTPrepare, wire.TypePBFTCommit,
	wire.TypeTMProposal, wire.TypeTMPrevote, wire.TypeTMPrecommit,
}

// keyFor builds a well-formed key of type t: a single-identifier type
// leaves B zero, a heartbeat carries no identifiers.
func keyFor(t wire.Type, a, b uint64) Key {
	switch t {
	case wire.TypeHeartbeat:
		return Key{Type: t}
	case wire.TypeNewView, wire.TypeFollowers:
		return Key{Type: t, A: a}
	}
	return Key{t, a, b}
}

// messageFor builds a message of type t carrying identifiers a, b,
// signed (or, for a heartbeat, sent) by s. Types outside keyTypes stand
// for traffic no expectation waits for.
func messageFor(t wire.Type, s ids.ProcessID, a, b uint64) wire.Message {
	switch t {
	case wire.TypeHeartbeat:
		return &wire.Heartbeat{From: s, Seq: a}
	case wire.TypeCommit:
		return &wire.Commit{Replica: s, View: a, Slot: b}
	case wire.TypePrepare:
		return &wire.Prepare{Leader: s, View: a, Slot: b}
	case wire.TypeNewView:
		return &wire.NewView{Leader: s, ViewNum: a}
	case wire.TypeFollowers:
		return &wire.Followers{Leader: s, Epoch: a}
	case wire.TypePBFTPrepare:
		m := &wire.PBFTPrepare{}
		m.Replica, m.View, m.Slot = s, a, b
		return m
	case wire.TypePBFTCommit:
		m := &wire.PBFTCommit{}
		m.Replica, m.View, m.Slot = s, a, b
		return m
	case wire.TypeTMProposal:
		return &wire.TMProposal{Proposer: s, Height: a, Round: b}
	case wire.TypeTMPrevote:
		m := &wire.TMPrevote{}
		m.Replica, m.Slot, m.View = s, a, b
		return m
	case wire.TypeTMPrecommit:
		m := &wire.TMPrecommit{}
		m.Replica, m.Slot, m.View = s, a, b
		return m
	case wire.TypeUpdate:
		return &wire.Update{Owner: s}
	}
	return &wire.Request{Client: uint64(s), Seq: a}
}

// fakeEnv is a hand-cranked runtime.Env for one process: timers fire in
// (deadline, issue) order only when advance moves the clock past them,
// so two detectors driven in lockstep see identical clocks.
type fakeEnv struct {
	id     ids.ProcessID
	cfg    ids.Config
	now    time.Duration
	seq    uint64
	timers []*fakeTimer
	reg    *metrics.Registry
	bus    *obs.Bus
	rng    *rand.Rand
	events uint64 // bus sequence up to which events were compared
}

type fakeTimer struct {
	at   time.Duration
	seq  uint64
	fn   func()
	done bool
}

func (t *fakeTimer) Stop() bool {
	if t.done {
		return false
	}
	t.done = true
	return true
}

func newFakeEnv(cfg ids.Config) *fakeEnv {
	return &fakeEnv{id: 1, cfg: cfg, reg: metrics.NewRegistry(), bus: obs.NewBus(1 << 16), rng: rand.New(rand.NewSource(1))}
}

func (e *fakeEnv) ID() ids.ProcessID                { return e.id }
func (e *fakeEnv) Config() ids.Config               { return e.cfg }
func (e *fakeEnv) Send(ids.ProcessID, wire.Message) {}
func (e *fakeEnv) Now() time.Duration               { return e.now }
func (e *fakeEnv) Rand() *rand.Rand                 { return e.rng }
func (e *fakeEnv) Auth() crypto.Authenticator       { return crypto.NopRing{} }
func (e *fakeEnv) Metrics() *metrics.Registry       { return e.reg }
func (e *fakeEnv) Events() *obs.Bus                 { return e.bus }

func (e *fakeEnv) After(d time.Duration, fn func()) runtime.Timer {
	e.seq++
	t := &fakeTimer{at: e.now + d, seq: e.seq, fn: fn}
	e.timers = append(e.timers, t)
	return t
}

// advance moves the clock by d, firing every timer due on the way.
func (e *fakeEnv) advance(d time.Duration) {
	until := e.now + d
	for {
		var next *fakeTimer
		live := e.timers[:0]
		for _, t := range e.timers {
			if t.done {
				continue
			}
			live = append(live, t)
			if t.at <= until && (next == nil || t.at < next.at || t.at == next.at && t.seq < next.seq) {
				next = t
			}
		}
		clear(e.timers[len(live):])
		e.timers = live
		if next == nil {
			break
		}
		e.now = next.at
		next.done = true
		next.fn()
	}
	e.now = until
}

// detectorUnderTest is what the streams drive: the keyed Detector or
// the reference, with its heartbeater and the callbacks it made.
type detectorUnderTest struct {
	env       *fakeEnv
	expect    func(scope string, from ids.ProcessID, desc string, key Key)
	receive   func(from ids.ProcessID, m wire.Message)
	cancel    func()
	scope     func(string)
	close     func()
	detected  func(ids.ProcessID)
	state     func() detectorState
	delivered []string
	published []string
}

// detectorState is everything the two detectors must agree on after
// every step.
type detectorState struct {
	Outstanding      []outstanding // sorted by desc, then sender
	Pending          int
	Suspected        string
	Raised, Canceled []int
	Timeouts         []time.Duration
	Detected         []bool
	// The fd.expectation.* counters.
	Issued, Matched, Expired, Dropped int64
}

func counters(s *detectorState, reg *metrics.Registry) {
	s.Issued = reg.Counter("fd.expectation.issued")
	s.Matched = reg.Counter("fd.expectation.matched")
	s.Expired = reg.Counter("fd.expectation.expired")
	s.Dropped = reg.Counter("fd.expectation.canceled")
}

// outstanding is one expectation a detector still holds.
type outstanding struct {
	desc, scope string
	from        ids.ProcessID
	overdue     bool
}

func (u *detectorUnderTest) bindCallbacks() (Deliver, OnSuspect) {
	return func(from ids.ProcessID, m wire.Message) {
			u.delivered = append(u.delivered, fmt.Sprintf("%s %T", from, m))
		}, func(s ids.ProcSet) {
			u.published = append(u.published, s.String())
		}
}

func newKeyed(cfg ids.Config, opts Options, hb time.Duration) *detectorUnderTest {
	u := &detectorUnderTest{env: newFakeEnv(cfg)}
	d := New(opts)
	deliver, onSuspect := u.bindCallbacks()
	d.Bind(u.env, deliver, onSuspect)
	if hb > 0 {
		NewHeartbeater(d, hb).Start(u.env)
	}
	u.expect, u.receive, u.cancel, u.scope, u.close, u.detected =
		d.Expect, d.Receive, d.Cancel, d.CancelScope, d.Close, d.Detected
	u.state = func() detectorState {
		s := detectorState{Pending: d.PendingExpectations(), Suspected: d.Suspected().String()}
		for _, list := range d.expects {
			for _, e := range list {
				s.Outstanding = append(s.Outstanding, outstanding{e.desc, e.scope, e.from, e.overdue})
			}
		}
		for _, p := range cfg.All() {
			s.Raised = append(s.Raised, d.SuspicionsRaised(p))
			s.Canceled = append(s.Canceled, d.SuspicionsCanceled(p))
			s.Timeouts = append(s.Timeouts, d.timeoutFor(p))
			s.Detected = append(s.Detected, d.IsDetected(p))
		}
		counters(&s, u.env.reg)
		return s
	}
	return u
}

func newReference(cfg ids.Config, opts Options, hb time.Duration) *detectorUnderTest {
	u := &detectorUnderTest{env: newFakeEnv(cfg)}
	d := newRefDetector(opts)
	deliver, onSuspect := u.bindCallbacks()
	d.Bind(u.env, deliver, onSuspect)
	if hb > 0 {
		newRefHeartbeater(d, hb).Start(u.env)
	}
	u.expect = func(scope string, from ids.ProcessID, desc string, key Key) {
		d.Expect(scope, from, desc, refPredicateFor(from, key))
	}
	u.receive, u.cancel, u.scope, u.close, u.detected = d.Receive, d.Cancel, d.CancelScope, d.Close, d.Detected
	u.state = func() detectorState {
		s := detectorState{Pending: d.PendingExpectations(), Suspected: d.Suspected().String()}
		for _, list := range d.expects {
			for _, e := range list {
				s.Outstanding = append(s.Outstanding, outstanding{e.desc, e.scope, e.from, e.overdue})
			}
		}
		for _, p := range cfg.All() {
			s.Raised = append(s.Raised, d.SuspicionsRaised(p))
			s.Canceled = append(s.Canceled, d.SuspicionsCanceled(p))
			s.Timeouts = append(s.Timeouts, d.timeoutFor(p))
			s.Detected = append(s.Detected, d.IsDetected(p))
		}
		counters(&s, u.env.reg)
		return s
	}
	return u
}

// byteStream hands out a fuzz input one byte at a time, zeros once it
// runs dry.
type byteStream struct {
	b   []byte
	off int
}

func (s *byteStream) more() bool { return s.off < len(s.b) }

func (s *byteStream) next() byte {
	if s.off >= len(s.b) {
		return 0
	}
	s.off++
	return s.b[s.off-1]
}

// runDifferential drives the keyed detector and the reference with one
// stream of operations decoded from ops and fails at the first step
// after which they disagree on consumed expectations, suspicions,
// raised/canceled counts, per-peer timeouts, deliveries, published
// suspicion sets or obs events. The first byte picks n ∈ {4, 7}, the
// adaptive option and whether a heartbeater runs; then each operation
// is one opcode byte and its operands:
//
//	Expect (duplicate keys are likely: identifiers range over 0..2),
//	Receive of a matching, non-matching or forwarded message,
//	advancing the clock (expiring, then matching overdue expectations),
//	CancelScope, Cancel, Detected and, rarely, Close.
func runDifferential(t testing.TB, ops []byte, seen map[string]int) {
	in := &byteStream{b: ops}
	head := in.next()
	n, f := 4, 1
	if head&1 != 0 {
		n, f = 7, 2
	}
	cfg := ids.MustConfig(n, f)
	opts := Options{BaseTimeout: 40 * time.Millisecond, MaxTimeout: 320 * time.Millisecond, Adaptive: head&2 == 0}
	var hb time.Duration
	if head&4 != 0 {
		hb = 15 * time.Millisecond
	}
	keyed, ref := newKeyed(cfg, opts, hb), newReference(cfg, opts, hb)
	both := func(fn func(u *detectorUnderTest)) { fn(keyed); fn(ref) }
	scopes := []string{"xpaxos", "selector", HeartbeatScope}
	proc := func(b byte) ids.ProcessID { return ids.ProcessID(int(b)%n + 1) }
	issued := 0
	for step := 0; in.more(); step++ {
		var what string
		switch op := in.next() % 16; {
		case op < 5:
			scope, from := scopes[int(in.next())%2], proc(in.next())
			kb := in.next()
			key := keyFor(keyTypes[int(kb)%len(keyTypes)], uint64(kb/16%3), uint64(in.next()%3))
			issued++
			desc := fmt.Sprintf("e%d", issued)
			what = fmt.Sprintf("Expect(%s, %s, %s, %+v)", scope, from, desc, key)
			both(func(u *detectorUnderTest) { u.expect(scope, from, desc, key) })
		case op < 10:
			tb, signer, link, ab := in.next(), proc(in.next()), proc(in.next()), in.next()
			t := wire.TypeUpdate
			if int(tb)%(len(keyTypes)+2) < len(keyTypes) {
				t = keyTypes[int(tb)%(len(keyTypes)+2)]
			} else if tb%2 == 0 {
				t = wire.TypeRequest
			}
			if tb&0x60 == 0x60 {
				t = wire.TypeHeartbeat // one in four: the standing expectations re-arm
			}
			if tb&0x80 == 0 {
				link = signer // most messages arrive from their signer
			}
			a, b := uint64(ab%3), uint64(ab/3%3)
			what = fmt.Sprintf("Receive(%s, %s signed by %s, %d, %d)", link, t, signer, a, b)
			both(func(u *detectorUnderTest) { u.receive(link, messageFor(t, signer, a, b)) })
		case op < 13:
			d := []time.Duration{0, 5, 15, 30, 45, 90, 200, 400}[in.next()%8] * time.Millisecond
			what = fmt.Sprintf("advance(%s)", d)
			both(func(u *detectorUnderTest) { u.env.advance(d) })
		case op == 13:
			// Canceling the heartbeat scope, or everything (below), ends
			// the standing expectations for good; keep it rare.
			b := in.next()
			scope := scopes[int(b)%2]
			if b%16 == 15 {
				scope = HeartbeatScope
			}
			what = fmt.Sprintf("CancelScope(%s)", scope)
			both(func(u *detectorUnderTest) { u.scope(scope) })
		case op == 14:
			if in.next()%16 == 0 {
				what = "Cancel()"
				both(func(u *detectorUnderTest) { u.cancel() })
			} else {
				p := proc(in.next())
				what = fmt.Sprintf("Detected(%s)", p)
				both(func(u *detectorUnderTest) { u.detected(p) })
			}
		default:
			if in.next() != 0 {
				continue // Close ends the stream's interest; keep it rare
			}
			what = "Close()"
			both(func(u *detectorUnderTest) { u.close() })
		}
		compareDetectors(t, step, what, keyed, ref, seen)
	}
}

// compareDetectors fails unless the two detectors agree after one
// step. Deliveries, publications and events are compared as they
// accrue and then dropped, so a long stream costs linear time; the
// keyed detector's events are tallied by type into seen.
func compareDetectors(t testing.TB, step int, what string, keyed, ref *detectorUnderTest, seen map[string]int) {
	t.Helper()
	ks, rs := keyed.state(), ref.state()
	for _, s := range [][]outstanding{ks.Outstanding, rs.Outstanding} {
		sort.Slice(s, func(i, j int) bool {
			if s[i].desc != s[j].desc {
				return s[i].desc < s[j].desc
			}
			return s[i].from < s[j].from
		})
	}
	if !reflect.DeepEqual(ks, rs) {
		t.Fatalf("step %d, %s: keyed detector\n\t%+v\nreference\n\t%+v", step, what, ks, rs)
	}
	if !reflect.DeepEqual(keyed.delivered, ref.delivered) {
		t.Fatalf("step %d, %s: deliveries %v, reference %v", step, what, keyed.delivered, ref.delivered)
	}
	if !reflect.DeepEqual(keyed.published, ref.published) {
		t.Fatalf("step %d, %s: published %v, reference %v", step, what, keyed.published, ref.published)
	}
	keyed.delivered, ref.delivered, keyed.published, ref.published = nil, nil, nil, nil
	ke, _ := keyed.env.bus.Since(keyed.env.events)
	re, _ := ref.env.bus.Since(ref.env.events)
	if !reflect.DeepEqual(ke, re) {
		t.Fatalf("step %d, %s: events\n\t%v\nreference\n\t%v", step, what, ke, re)
	}
	keyed.env.events += uint64(len(ke))
	ref.env.events += uint64(len(re))
	for _, e := range ke {
		seen[e.Type.String()]++
		if e.Type == obs.TypeExpect && e.Detail == HeartbeatScope+":heartbeat" {
			seen["heartbeat armed"]++
		}
	}
	if keyed.env.now != ref.env.now || keyed.env.seq != ref.env.seq {
		t.Fatalf("step %d, %s: clock %s/%d timers, reference %s/%d", step, what,
			keyed.env.now, keyed.env.seq, ref.env.now, ref.env.seq)
	}
}

// randomStream is a seeded stream for runDifferential.
func randomStream(seed int64, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 1+5*steps)
	rng.Read(out)
	return out
}

func TestDetectorIndexMatchesPredicateScan(t *testing.T) {
	seen := make(map[string]int)
	armedAtStart := 0 // heartbeat expectations the heartbeaters' first arming issues
	for seed := int64(0); seed < 40; seed++ {
		ops := randomStream(seed, 400)
		for _, head := range []byte{0, 1, 2, 3, 4, 5, 6, 7} {
			ops[0] = head
			runDifferential(t, ops, seen)
			if head&4 != 0 {
				armedAtStart += 3 + 3*int(head&1) // n−1 peers
			}
		}
	}
	// The streams must reach every path they are meant to: expiry,
	// a late match clearing a suspicion, cancellation, detection and
	// the heartbeater re-arming its standing expectations.
	for _, kind := range []string{"EXPECT", "SUSPECTED", "SUSPICION_CLEARED", "CANCEL", "DETECTED"} {
		if seen[kind] == 0 {
			t.Errorf("no %s event in any stream", kind)
		}
	}
	if rearmed := seen["heartbeat armed"] - armedAtStart; rearmed < armedAtStart {
		t.Errorf("standing heartbeat expectations re-armed %d times, want at least %d", rearmed, armedAtStart)
	}
	t.Logf("events over all streams: %v", seen)
}

// FuzzDetectorMatch feeds arbitrary operation streams (runDifferential's
// encoding) to the keyed detector and the predicate-scan reference.
func FuzzDetectorMatch(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		ops := randomStream(seed, 60)
		ops[0] = byte(seed)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runDifferential(t, ops, make(map[string]int)) })
}

package fd

import (
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// HeartbeatScope tags the heartbeat module's expectations in the
// detector.
const HeartbeatScope = "heartbeat"

// Heartbeater realizes the paper's §II assumption that "every process
// is expected to send infinitely many messages": it periodically sends
// HEARTBEAT messages to all other processes and keeps a standing
// expectation for a heartbeat from every other process.
//
// A process that crashes stays suspected (its standing expectation
// never matches again); a process that omits some heartbeats is
// suspected and un-suspected repeatedly — the paper's eventual
// detection of repeated omission failures. A process whose delays grow
// without bound keeps outrunning the adaptive timeout — eventual
// detection of increasing timing failures.
type Heartbeater struct {
	env      runtime.Env
	detector *Detector
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
func NewHeartbeater(detector *Detector, period time.Duration) *Heartbeater {
	if period <= 0 {
		panic("fd: heartbeat period must be positive")
	}
	return &Heartbeater{detector: detector, period: period}
}

// Start begins sending heartbeats and issues the initial standing
// expectations for every other process. The first expectations are
// armed one period late: on real transports peers start at slightly
// different times and connections have to be dialed first, and a
// suspicion burst at startup would churn quorums for no reason.
func (h *Heartbeater) Start(env runtime.Env) {
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
func (h *Heartbeater) Stop() {
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

func (h *Heartbeater) tick() {
	if h.stopped {
		return
	}
	h.seq++
	hb := &wire.Heartbeat{From: h.env.ID(), Seq: h.seq}
	runtime.Broadcast(h.env, hb, false)
	h.tickTimer = h.env.After(h.period, h.tick)
}

// expectFrom issues a standing heartbeat expectation for p: the match
// that consumes it issues the next one, at its end, so the expectation
// never runs out. Its key accepts any heartbeat from p — which heartbeat
// arrives is irrelevant, only that p keeps sending.
func (h *Heartbeater) expectFrom(p ids.ProcessID) {
	if h.stopped {
		return
	}
	h.detector.expect(HeartbeatScope, p, Key{Type: wire.TypeHeartbeat}, h)
}

// IsHeartbeat reports whether m is a heartbeat. The detector filters
// heartbeats out of the deliver path itself (see Detector.Bind), so
// composition layers no longer need this; it remains exported for
// tests and adversary filters that classify traffic.
func IsHeartbeat(m wire.Message) bool {
	_, ok := m.(*wire.Heartbeat)
	return ok
}

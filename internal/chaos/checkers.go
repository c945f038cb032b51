package chaos

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"quorumselect/internal/cluster"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
)

// Phase tells a checker where in the run it is being evaluated.
type Phase int

const (
	// PhaseOnline is a periodic check while faults may still be active:
	// only invariants that hold at every instant belong here.
	PhaseOnline Phase = iota
	// PhaseSettled runs once, after faults have stopped and the settle
	// time has passed; checkers snapshot state to compare at PhaseFinal.
	PhaseSettled
	// PhaseFinal runs once at the end of the horizon.
	PhaseFinal
)

// Checker is one pluggable invariant, evaluated against live node state
// during a run, once per shard (RunState knows which). A non-nil error
// is a violation and aborts the seed.
type Checker interface {
	Name() string
	Check(r *RunState, phase Phase) error
}

// defaultCheckers assembles the invariant suite for a protocol.
func defaultCheckers(p Protocol) []Checker {
	cs := []Checker{
		&noSuspicionChecker{},
		&accuracyChecker{},
		&completenessChecker{},
	}
	if p.settles() {
		cs = append(cs, &agreementChecker{}, &convergenceChecker{}, &terminationChecker{})
	}
	if p.smr() {
		cs = append(cs, &historyChecker{})
	}
	if p.durable() {
		cs = append(cs, &recoveryChecker{})
	}
	if p.checksLiveness() {
		cs = append(cs, &livenessChecker{})
	}
	return cs
}

// noSuspicionChecker verifies the paper's No suspicion property at
// every instant: each process's current quorum is an independent set of
// its own suspect graph, so no current suspicion connects two quorum
// members. The selector re-evaluates synchronously on every store
// change, so between simulator events the invariant must hold exactly.
type noSuspicionChecker struct{}

func (noSuspicionChecker) Name() string { return "no-suspicion" }

func (noSuspicionChecker) Check(r *RunState, _ Phase) error {
	for _, p := range r.cfg.All() {
		h := r.host(p)
		if !r.cluster.Running(p) || h.Store == nil {
			continue
		}
		q := h.CurrentQuorum()
		if !h.Store.SuspectGraph().IsIndependentSet(q.Members) {
			return fmt.Errorf("%s: quorum %s is not an independent set of the suspect graph %s",
				p, q, h.Store.SuspectGraph())
		}
	}
	return nil
}

// accuracyChecker verifies detector accuracy: DETECTED is permanent, so
// no process may ever permanently detect a correct (never-faulty)
// process. Faulty processes are fair game — detecting them is the
// point.
type accuracyChecker struct{}

func (accuracyChecker) Name() string { return "detector-accuracy" }

func (accuracyChecker) Check(r *RunState, _ Phase) error {
	for _, p := range r.cfg.All() {
		if !r.cluster.Running(p) {
			continue
		}
		for _, q := range r.cfg.All() {
			if r.Scenario.Faulty.Contains(q) {
				continue
			}
			if r.host(p).Detector.IsDetected(q) {
				return fmt.Errorf("%s permanently DETECTED correct process %s", p, q)
			}
		}
	}
	return nil
}

// completenessChecker verifies detection completeness for crash
// failures: once faults have settled, every running process suspects
// every permanently crashed process (its standing heartbeat expectation
// can never match again).
type completenessChecker struct{}

func (completenessChecker) Name() string { return "detector-completeness" }

func (completenessChecker) Check(r *RunState, phase Phase) error {
	if phase != PhaseFinal {
		return nil
	}
	for _, crashed := range r.cfg.All() {
		if !r.Scenario.CrashedForever(crashed) {
			continue
		}
		for _, p := range r.cfg.All() {
			if !r.cluster.Running(p) {
				continue
			}
			if !r.host(p).Detector.Suspected().Contains(crashed) {
				return fmt.Errorf("%s does not suspect crashed process %s at end of run", p, crashed)
			}
		}
	}
	return nil
}

// agreementChecker verifies quorum-selection Agreement: after faults
// stop and suspicions settle, every correct process converges on the
// same quorum. Restarted processes are excluded: a process that was
// down missed UPDATE broadcasts the paper's reliable channels would
// have delivered, which is outside the model (the store gossips rows
// only on change, so there is no anti-entropy to catch it up).
type agreementChecker struct{}

func (agreementChecker) Name() string { return "qs-agreement" }

func (agreementChecker) Check(r *RunState, phase Phase) error {
	if phase != PhaseFinal {
		return nil
	}
	hosts := make(map[ids.ProcessID]*host.Host)
	var held []string
	for _, p := range r.cfg.All() {
		if h := r.host(p); r.cluster.Running(p) && h.Store != nil && !r.Scenario.Restarted(p) {
			hosts[p] = h
			held = append(held, fmt.Sprintf("%s has %s", p, h.CurrentQuorum()))
		}
	}
	if _, ok := cluster.Agreed(hosts); !ok {
		return fmt.Errorf("quorum disagreement after settling: %s", strings.Join(held, ", "))
	}
	return nil
}

// convergenceChecker verifies Lemma 1's premise directly: after faults
// stop and suspicions settle, every correct process holds the same
// suspicion matrix. qs-agreement only implies it (equal matrices give
// equal quorums, not the converse). Faulty processes are excluded, and
// with them every restarted one: only faulty processes crash.
type convergenceChecker struct{}

func (convergenceChecker) Name() string { return "suspicion-convergence" }

func (convergenceChecker) Check(r *RunState, phase Phase) error {
	if phase != PhaseFinal {
		return nil
	}
	var ref [][]uint64
	var refProc ids.ProcessID
	for _, p := range r.cfg.All() {
		h := r.host(p)
		if !r.cluster.Running(p) || h.Store == nil || r.Scenario.Faulty.Contains(p) {
			continue
		}
		m := h.Store.Snapshot()
		if ref == nil {
			ref, refProc = m, p
			continue
		}
		for l := range m {
			if !slices.Equal(m[l], ref[l]) {
				return fmt.Errorf("suspicion matrices differ after settling: %s's row is %v at %s, %v at %s",
					ids.ProcessID(l+1), ref[l], refProc, m[l], p)
			}
		}
	}
	return nil
}

// terminationChecker verifies quorum-selection Termination in its
// testable form: once suspicions stop changing (faults over, settle
// time passed), no process issues another quorum. It snapshots issued
// counts at PhaseSettled and demands no growth by PhaseFinal.
type terminationChecker struct {
	snap map[ids.ProcessID]int
}

func (*terminationChecker) Name() string { return "qs-termination" }

func (t *terminationChecker) Check(r *RunState, phase Phase) error {
	switch phase {
	case PhaseSettled:
		t.snap = make(map[ids.ProcessID]int, r.cfg.N)
		for _, p := range r.cfg.All() {
			if h := r.host(p); r.cluster.Running(p) && h.Store != nil {
				t.snap[p] = len(h.Quorums())
			}
		}
	case PhaseFinal:
		if t.snap == nil {
			return nil
		}
		for _, p := range r.cfg.All() {
			h := r.host(p)
			if !r.cluster.Running(p) || h.Store == nil || r.Scenario.Restarted(p) {
				continue
			}
			was, ok := t.snap[p]
			if !ok {
				continue
			}
			if now := len(h.Quorums()); now > was {
				return fmt.Errorf("%s issued %d quorums after suspicions settled", p, now-was)
			}
		}
	}
	return nil
}

// historyChecker verifies cross-replica replicated-history agreement at
// every instant (cluster.HistoriesAgree: slot-aligned, batch-aware,
// comparing operation and result) and exactly-once execution.
type historyChecker struct{}

func (historyChecker) Name() string { return "history-agreement" }

func (historyChecker) Check(r *RunState, _ Phase) error {
	return r.cluster.HistoriesAgree(r.shard)
}

// recoveryChecker verifies crash-restart durability: every restarted
// durable member must be running again by the end of the run, and its
// post-restart history must extend — element for element — the history
// it had acknowledged when it crashed. Every execution is persisted and
// fsynced before it happens, so even a power-loss (hard) crash may not
// shorten the acknowledged prefix; a backend that lies about fsync (the
// TamperSkipSync hook) is exactly what this checker exists to catch.
type recoveryChecker struct{}

func (recoveryChecker) Name() string { return "crash-recovery" }

func (recoveryChecker) Check(r *RunState, phase Phase) error {
	if phase != PhaseFinal {
		return nil
	}
	for _, p := range r.cfg.All() {
		frozen, ok := r.preCrash[p]
		if !ok || !r.Scenario.Restarted(p) {
			continue
		}
		if !r.cluster.Running(p) {
			return fmt.Errorf("%s never came back up after its restart", p)
		}
		pre, cur := frozen[r.shard], r.history(p, r.shard)
		if len(cur) < len(pre) {
			return fmt.Errorf("%s recovered only %d of the %d executions it acknowledged before crashing",
				p, len(cur), len(pre))
		}
		for k := range pre {
			if pre[k].Slot != cur[k].Slot || pre[k].Client != cur[k].Client ||
				pre[k].Seq != cur[k].Seq || !bytes.Equal(pre[k].Op, cur[k].Op) ||
				!bytes.Equal(pre[k].Result, cur[k].Result) {
				return fmt.Errorf("%s recovered a diverged history at index %d: acknowledged slot=%d client=%d seq=%d, recovered slot=%d client=%d seq=%d",
					p, k, pre[k].Slot, pre[k].Client, pre[k].Seq,
					cur[k].Slot, cur[k].Client, cur[k].Seq)
			}
		}
	}
	return nil
}

// livenessChecker verifies post-fault progress: probe requests
// submitted after the faults settled must all execute somewhere by the
// end of the horizon. It demands progress of the system, not of every
// replica — a non-quorum replica may legitimately trail until lazy
// replication or catch-up reaches it.
type livenessChecker struct{}

func (livenessChecker) Name() string { return "liveness" }

func (livenessChecker) Check(r *RunState, phase Phase) error {
	if phase != PhaseFinal || r.probes == 0 {
		return nil
	}
	if best, bestProc := r.cluster.Executed(r.shard, probeClient); best < r.probes {
		return fmt.Errorf("only %d of %d post-fault probes executed (best replica %s)",
			best, r.probes, bestProc)
	}
	return nil
}

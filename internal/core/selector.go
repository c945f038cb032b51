// Package core implements the paper's primary contribution: the Quorum
// Selection module of Algorithm 1 (§VI), and the process composition of
// Figure 1 (failure detector → suspicion store → selector →
// application).
//
// The selector outputs ⟨QUORUM, Q⟩ events with |Q| = n − f, satisfying
// (under the failure detector's properties):
//
//   - Termination: a correct process changes the quorum only finitely
//     often (Theorem 3: at most O(f²) quorums once suspicions between
//     correct processes cease).
//   - No suspicion: suspicions are edges of the suspect graph and the
//     quorum is an independent set, so no current suspicion connects
//     two quorum members.
//   - Agreement: suspicions propagate through the eventually-consistent
//     store and the quorum is the deterministic lexicographically-first
//     independent set, so correct processes converge.
//
// The quorum rule itself is pluggable (internal/quorum): the default is
// the paper's n−f threshold system, but the same state machine runs
// unchanged over weighted or FBAS-style slice systems — "first
// independent set of size q" generalizes to "lexicographically-first
// minimal quorum that is an independent set of the suspect graph".
//
// One deliberate deviation from the pseudocode's event plumbing: after
// advancing the epoch (Algorithm 1 lines 28–29) this implementation
// re-evaluates the quorum immediately instead of waiting for the
// self-addressed UPDATE broadcast to arrive. The paper's version
// re-enters updateQuorum only through that self-delivery, which never
// fires when the re-issued row is unchanged (e.g. `suspecting` is
// empty) — the eager loop closes that liveness gap and is otherwise
// observationally identical. The loop terminates: once the epoch
// exceeds every stamp in the matrix, the suspect graph contains at most
// the local process's own (re-stamped) suspicions, a star that always
// admits an independent set of size q ≤ n−1 for f ≥ 1 (and for f = 0 the
// graph is empty).
package core

import (
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/quorum"
	"quorumselect/internal/runtime"
	"quorumselect/internal/suspicion"
)

// OnQuorum receives ⟨QUORUM, Q⟩ events.
type OnQuorum func(q ids.Quorum)

// Selector is Algorithm 1's quorum-selection state machine at one
// process.
type Selector struct {
	env      runtime.Env
	store    *suspicion.Store
	onQuorum OnQuorum
	sys      quorum.System

	qLast ids.Quorum

	// issuedTotal counts ⟨QUORUM⟩ events; issuedInEpoch maps epoch →
	// count, the quantity bounded by Theorem 3.
	issuedTotal   int
	issuedInEpoch map[uint64]int

	// Memoized selection result, keyed by the store's graph version:
	// onChange fires on every merged UPDATE, but the suspect graph (and
	// hence the selected quorum) only changes when an edge does. The
	// quorum system is fixed for the selector's lifetime, so the
	// version alone keys the memo.
	isetVersion uint64
	isetSet     []ids.ProcessID
	isetOK      bool
	isetValid   bool

	// updating guards against re-entry: AdvanceEpoch re-stamps the
	// current suspicions, which fires the store's onChange hook, which
	// is wired back to UpdateQuorum.
	updating bool

	// UpdateQuorum runs once per merged UPDATE; its series are resolved
	// at construction.
	recomputed, issued, cacheHits, cacheMisses *metrics.CounterHandle
	updateSeconds                              *metrics.HistHandle
}

// NewSelectorSystem creates a selector over the given store running a
// generalized quorum system. A nil system means the paper's threshold
// system q = n − f from the configuration. The system's size must match
// n; callers are expected to have validated the spec with quorum.Check
// before booting a node on it. Bind the store's onChange to
// (*Selector).UpdateQuorum; wire the failure detector's suspicions to
// (*Selector).OnSuspected.
func NewSelectorSystem(env runtime.Env, store *suspicion.Store, sys quorum.System, onQuorum OnQuorum) *Selector {
	if sys == nil {
		sys = quorum.FromConfig(env.Config())
	}
	if sys.N() != env.Config().N {
		panic("core: quorum system size does not match configuration n")
	}
	dq, ok := quorum.Default(sys)
	if !ok {
		panic("core: quorum system admits no quorum at all")
	}
	s := &Selector{
		env:           env,
		store:         store,
		onQuorum:      onQuorum,
		sys:           sys,
		qLast:         ids.NewQuorum(dq),
		issuedInEpoch: make(map[uint64]int),

		recomputed:    env.Metrics().CounterHandle("core.quorum.recomputed"),
		issued:        env.Metrics().CounterHandle("core.quorum.issued"),
		cacheHits:     env.Metrics().CounterHandle("selector.iset.cache_hits"),
		cacheMisses:   env.Metrics().CounterHandle("selector.iset.cache_misses"),
		updateSeconds: env.Metrics().HistHandle("core.quorum.update.seconds"),
	}
	return s
}

// System returns the quorum system the selector runs on.
func (s *Selector) System() quorum.System { return s.sys }

// Current returns the last issued (or initial) quorum.
func (s *Selector) Current() ids.Quorum { return s.qLast }

// QuorumsIssued returns the total number of ⟨QUORUM⟩ events issued.
func (s *Selector) QuorumsIssued() int { return s.issuedTotal }

// QuorumsIssuedInEpoch returns how many quorums were issued while the
// local epoch was e — the quantity Theorem 3 bounds by f(f+1) and the
// paper's simulations bound by C(f+2, 2).
func (s *Selector) QuorumsIssuedInEpoch(e uint64) int { return s.issuedInEpoch[e] }

// Epoch returns the current epoch.
func (s *Selector) Epoch() uint64 { return s.store.Epoch() }

// OnSuspected is the ⟨SUSPECTED, S⟩ handler (Algorithm 1 lines 9–10):
// it records and broadcasts the new suspicion set.
func (s *Selector) OnSuspected(suspected ids.ProcSet) {
	s.store.UpdateSuspicions(suspected)
}

// UpdateQuorum is Algorithm 1's updateQuorum (lines 25–34): build the
// suspect graph, advance the epoch while no quorum of the system is an
// independent set, then issue the lexicographically-first one if it
// differs from the last quorum. Wire it to the store's onChange hook.
func (s *Selector) UpdateQuorum() {
	if s.updating {
		return
	}
	s.updating = true
	defer func() { s.updating = false }()

	// Recomputation cost is CPU time, so it is measured against the wall
	// clock: the simulator's virtual clock does not advance during a
	// synchronous call.
	wallStart := time.Now()
	s.recomputed.Inc()
	defer func() {
		s.updateSeconds.Observe(time.Since(wallStart).Seconds())
	}()

	// Epochs beyond startMax contain only the local process's own
	// re-stamped suspicions (every foreign stamp is ≤ startMax), so the
	// advance loop below visits at most startMax−epoch+1 epochs before
	// the graph stops shrinking.
	startMax := s.store.MaxEpochSeen()
	for {
		set, ok := s.firstQuorum()
		if !ok {
			if s.store.Epoch() > startMax {
				// Even the local process's own current suspicions
				// preclude a quorum (it suspects more than f others —
				// an assumption violation, e.g. f = 0 with any
				// suspicion). Keep the last quorum rather than spin.
				s.env.Metrics().Inc("core.quorum.precluded", 1)
				return
			}
			// Suspicions in the current epoch are inconsistent with
			// any quorum: move on (lines 27–29).
			s.store.AdvanceEpoch()
			continue
		}
		issued := ids.NewQuorum(set)
		if !issued.Equal(s.qLast) {
			s.qLast = issued
			s.issuedTotal++
			s.issuedInEpoch[s.store.Epoch()]++
			s.issued.Inc()
			runtime.Emit(s.env, obs.Event{Type: obs.TypeQuorumChange,
				Epoch: s.store.Epoch(), Detail: issued.String()})
			if s.onQuorum != nil {
				s.onQuorum(issued)
			}
		}
		return
	}
}

// firstQuorum returns the lexicographically-first minimal quorum of the
// system that is an independent set of the current suspect graph,
// memoized per graph version so UPDATE storms that do not change the
// graph's edge set skip the exponential search entirely.
func (s *Selector) firstQuorum() ([]ids.ProcessID, bool) {
	g, ver := s.store.GraphSnapshot()
	if s.isetValid && s.isetVersion == ver {
		s.cacheHits.Inc()
		return s.isetSet, s.isetOK
	}
	s.cacheMisses.Inc()
	set, ok := quorum.Select(s.sys, g)
	s.isetVersion, s.isetSet, s.isetOK, s.isetValid = ver, set, ok, true
	return set, ok
}

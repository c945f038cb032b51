// Package follower implements Follower Selection (Algorithm 2, §VIII):
// the leader-centric variant of Quorum Selection for systems with
// |Π| > 3f and FIFO links. It replaces the no-suspicion property with
// no-leader-suspicion (only leader↔follower suspicions matter) and in
// exchange needs only O(f) quorum changes per epoch (Theorem 9:
// ≤ 3f+1; Corollary 10: ≤ 6f+2 once the failure detector is accurate).
//
// Structure, following Algorithm 2:
//
//   - Suspicions propagate exactly as in Algorithm 1 (the shared
//     suspicion.Store).
//   - updateQuorum builds the suspect graph; if no independent set of
//     size q exists the epoch advances and the default leader p_1 with
//     the default quorum is installed.
//   - Otherwise the maximal line subgraph determines the leader
//     (Definition 1). On a leader change, followers issue an
//     expectation for a FOLLOWERS message; the leader selects q−1
//     possible followers (Definition 2) and broadcasts its signed
//     choice together with the justifying line subgraph.
//   - Receivers validate well-formedness (Definition 3), detect
//     equivocation, forward the first accepted FOLLOWERS, and issue
//     ⟨QUORUM, leader, Fw ∪ {leader}⟩.
package follower

import (
	"fmt"

	"quorumselect/internal/fd"
	"quorumselect/internal/graph"
	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/quorum"
	"quorumselect/internal/runtime"
	"quorumselect/internal/suspicion"
	"quorumselect/internal/wire"
)

// Scope tags this module's expectations in the failure detector.
const Scope = "follower-selection"

// OnQuorum receives ⟨QUORUM, leader, Q⟩ events.
type OnQuorum func(q ids.Quorum)

// Selector is the Follower Selection state machine at one process.
type Selector struct {
	env      runtime.Env
	store    *suspicion.Store
	detector *fd.Detector
	onQuorum OnQuorum
	sys      quorum.System

	leader ids.ProcessID
	stable bool
	qLast  ids.Quorum
	line   *graph.LineSubgraph

	// qDefault is the system's default quorum with its lowest member as
	// default leader — the generalized {p_1, {p_1..p_q}} of lines 12–14.
	qDefault ids.Quorum

	issuedTotal   int
	issuedInEpoch map[uint64]int
	updating      bool

	// Memoized per-graph-version results: onChange fires on every
	// merged UPDATE, but the quorum-admission check and the maximal
	// line subgraph only change when the suspect graph's edges do.
	isetVersion uint64
	isetOK      bool
	isetValid   bool
	lineVersion uint64
	lineCached  *graph.LineSubgraph
}

// NewSelectorSystem creates a Follower Selection module running a
// generalized quorum system; nil means the paper's threshold system from
// the configuration. Callers must validate non-default specs with
// quorum.Check before booting on them. The configuration must satisfy
// the §VIII assumption |Π| > 3f; NewSelectorSystem panics otherwise,
// since the O(f) bound (and Lemma 8) does not hold below it.
func NewSelectorSystem(env runtime.Env, store *suspicion.Store, detector *fd.Detector, sys quorum.System, onQuorum OnQuorum) *Selector {
	cfg := env.Config()
	if !cfg.LeaderCentric() {
		panic(fmt.Sprintf("follower: Follower Selection requires n > 3f, got %s", cfg))
	}
	if sys == nil {
		sys = quorum.FromConfig(cfg)
	}
	if sys.N() != cfg.N {
		panic("follower: quorum system size does not match configuration n")
	}
	dq, ok := quorum.Default(sys)
	if !ok || len(dq) == 0 {
		panic("follower: quorum system admits no quorum at all")
	}
	qDefault := ids.NewLeaderQuorum(dq[0], dq)
	return &Selector{
		env:           env,
		store:         store,
		detector:      detector,
		onQuorum:      onQuorum,
		sys:           sys,
		leader:        qDefault.Leader,
		stable:        true,
		qLast:         qDefault,
		qDefault:      qDefault,
		line:          graph.NewLineSubgraph(cfg.N),
		issuedInEpoch: make(map[uint64]int),
	}
}

// System returns the quorum system the selector runs on.
func (s *Selector) System() quorum.System { return s.sys }

// Current returns the last issued (or initial) leader quorum.
func (s *Selector) Current() ids.Quorum { return s.qLast }

// Leader returns the currently detected leader.
func (s *Selector) Leader() ids.ProcessID { return s.leader }

// Stable reports whether the current leader's FOLLOWERS choice has been
// accepted.
func (s *Selector) Stable() bool { return s.stable }

// Epoch returns the current epoch.
func (s *Selector) Epoch() uint64 { return s.store.Epoch() }

// QuorumsIssued returns the total number of ⟨QUORUM⟩ events issued.
func (s *Selector) QuorumsIssued() int { return s.issuedTotal }

// QuorumsIssuedInEpoch returns the count Theorem 9 bounds by 3f+1.
func (s *Selector) QuorumsIssuedInEpoch(e uint64) int { return s.issuedInEpoch[e] }

// OnSuspected is the ⟨SUSPECTED, S⟩ handler; as in Algorithm 1 it
// records and broadcasts the suspicions.
func (s *Selector) OnSuspected(suspected ids.ProcSet) {
	s.store.UpdateSuspicions(suspected)
}

// UpdateQuorum is Algorithm 2's updateQuorum (lines 7–26); wire it to
// the store's onChange hook.
func (s *Selector) UpdateQuorum() {
	if s.updating {
		return
	}
	s.updating = true
	defer func() { s.updating = false }()

	startMax := s.store.MaxEpochSeen()
	for {
		g, ver := s.store.GraphSnapshot()
		if !s.hasQuorum(g, ver) {
			if s.store.Epoch() > startMax {
				// As in core: the local process's own suspicions preclude
				// any quorum. Keep the last one rather than spin.
				s.env.Metrics().Inc("follower.quorum.precluded", 1)
				return
			}
			// Lines 10–15: next epoch, default leader and quorum.
			s.store.IncrementEpoch()
			s.detector.CancelScope(Scope)
			s.leader = s.qDefault.Leader
			s.stable = true
			s.issueQuorum(s.qDefault)
			s.store.UpdateSuspicions(s.store.Suspecting())
			continue
		}

		// Lines 17–26: leader from the maximal line subgraph.
		l := s.maximalLineSubgraph(g)
		newLeader := l.Leader()
		if newLeader == s.leader {
			return // line 18: no leader change, no new quorum
		}
		s.stable = false
		s.leader = newLeader
		s.line = l
		s.detector.CancelScope(Scope)
		if s.leader != s.env.ID() {
			s.expectFollowersFrom(s.leader, s.store.Epoch())
			return
		}
		// I am the new leader: select and broadcast followers.
		fw, ok := selectFollowers(s.sys, l, g)
		if !ok {
			// Too few possible followers to complete a quorum around
			// the leader (transient, outside the regime the paper
			// analyzes). Not broadcasting lets the followers'
			// expectations expire; the resulting suspicions grow the
			// graph and move the leader on.
			s.env.Metrics().Inc("follower.followers.withheld", 1)
			return
		}
		msg := &wire.Followers{
			Leader:    s.env.ID(),
			Epoch:     s.store.Epoch(),
			Followers: fw,
			Line:      toWireEdges(l.Edges()),
		}
		runtime.Sign(s.env, msg)
		s.env.Metrics().Inc("follower.followers.broadcast", 1)
		runtime.Broadcast(s.env, msg, true)
		return
	}
}

// hasQuorum memoizes "some quorum of the system is an independent set
// of g" per graph version (the system is fixed for the selector's
// lifetime).
func (s *Selector) hasQuorum(g *graph.Graph, ver uint64) bool {
	if s.isetValid && s.isetVersion == ver {
		s.env.Metrics().Inc("selector.iset.cache_hits", 1)
		return s.isetOK
	}
	s.env.Metrics().Inc("selector.iset.cache_misses", 1)
	s.isetOK = quorum.Admits(s.sys, g)
	s.isetVersion, s.isetValid = ver, true
	return s.isetOK
}

// selectFollowers picks the leader's follower set under sys: grow
// {leader} ∪ Fw through the candidate order until it is a quorum, then
// prune members that turned out redundant so the broadcast choice is
// minimal. For a threshold system that is Definition 2's first q−1
// candidates (SelectFollowers): the set first reaches q members there,
// and every member of a q-set is load-bearing.
func selectFollowers(sys quorum.System, l *graph.LineSubgraph, g *graph.Graph) ([]ids.ProcessID, bool) {
	cand := candidates(l, g)
	members := []ids.ProcessID{l.Leader()}
	for _, p := range cand {
		if sys.IsQuorum(members) {
			break
		}
		members = append(members, p)
	}
	if !sys.IsQuorum(members) {
		return cand, false
	}
	// Prune in reverse insertion order: later candidates were added
	// under weaker need, so dropping them first yields the same set a
	// minimal forward search would.
	for i := len(members) - 1; i >= 1; i-- {
		without := append(append([]ids.ProcessID{}, members[:i]...), members[i+1:]...)
		if sys.IsQuorum(without) {
			members = without
		}
	}
	return members[1:], true
}

// maximalLineSubgraph memoizes graph.MaximalLineSubgraph(g) per graph
// version. The witness is handed out read-only.
func (s *Selector) maximalLineSubgraph(g *graph.Graph) *graph.LineSubgraph {
	ver := s.store.GraphVersion()
	if s.lineCached != nil && s.lineVersion == ver {
		s.env.Metrics().Inc("selector.line.cache_hits", 1)
		return s.lineCached
	}
	s.env.Metrics().Inc("selector.line.cache_misses", 1)
	s.lineCached = graph.MaximalLineSubgraph(g)
	s.lineVersion = ver
	return s.lineCached
}

// expectFollowersFrom issues the ⟨EXPECT, P_{Fw,epoch}, leader⟩ of
// line 23: a signed FOLLOWERS message from the leader for this epoch.
func (s *Selector) expectFollowersFrom(leader ids.ProcessID, epoch uint64) {
	s.detector.Expect(Scope, leader, fd.Key{Type: wire.TypeFollowers, A: epoch})
}

// HandleFollowers processes a (signature-verified) FOLLOWERS message
// (Algorithm 2 lines 27–37).
func (s *Selector) HandleFollowers(m *wire.Followers) {
	if m.Leader != s.leader || m.Epoch != s.store.Epoch() {
		return // line 28 guard: stale or foreign leader
	}
	if !wellFormed(s.sys, s.store.SuspectGraph(), m) {
		s.env.Metrics().Inc("follower.detected.malformed", 1)
		s.detector.Detected(m.Leader)
		return
	}
	quorum := ids.NewLeaderQuorum(m.Leader, append([]ids.ProcessID{m.Leader}, m.Followers...))
	if s.stable {
		if !quorum.Equal(s.qLast) {
			// Line 31–32: a second, different FOLLOWERS in the same
			// epoch — equivocation.
			s.env.Metrics().Inc("follower.detected.equivocation", 1)
			s.detector.Detected(m.Leader)
		}
		return
	}
	// Lines 33–37: first accepted FOLLOWERS for this leader.
	s.stable = true
	s.env.Metrics().Inc("follower.followers.forwarded", 1)
	runtime.Broadcast(s.env, m, false) // forward
	s.issueQuorum(quorum)
}

// wellFormed checks Definition 3 against the local suspect graph g.
// The size clause is stated on the quorum system: {l} ∪ Fw must be a
// quorum with every follower load-bearing, so a Byzantine leader cannot
// pad its quorum with cronies beyond the minimal choice. For a
// threshold system that is exactly q−1 followers.
func wellFormed(sys quorum.System, g *graph.Graph, m *wire.Followers) bool {
	n := sys.N()
	// a) l ∈ Π, l ∉ Fw, no duplicates, and the quorum clause below.
	if !m.Leader.Valid(n) {
		return false
	}
	seen := ids.NewProcSet()
	for _, fw := range m.Followers {
		if fw == m.Leader || !fw.Valid(n) || seen.Contains(fw) {
			return false
		}
		seen.Add(fw)
	}
	members := append([]ids.ProcessID{m.Leader}, m.Followers...)
	if !sys.IsQuorum(members) {
		return false
	}
	for i := 1; i < len(members); i++ {
		without := append(append([]ids.ProcessID{}, members[:i]...), members[i+1:]...)
		if sys.IsQuorum(without) {
			return false // follower i is padding, not load-bearing
		}
	}
	// b) L' is a line subgraph and L' ⊆ G_i.
	l, err := graph.LineSubgraphFromEdges(n, fromWireEdges(m.Line))
	if err != nil {
		return false
	}
	if !l.SubgraphOf(g) {
		return false
	}
	// c) l_{L'} = j.
	if l.Leader() != m.Leader {
		return false
	}
	// d) all fw ∈ Fw are possible followers for L'.
	for _, fw := range m.Followers {
		if !l.IsPossibleFollower(fw) {
			return false
		}
	}
	return true
}

func (s *Selector) issueQuorum(q ids.Quorum) {
	if q.Equal(s.qLast) {
		s.qLast = q
		return
	}
	s.qLast = q
	s.issuedTotal++
	s.issuedInEpoch[s.store.Epoch()]++
	s.env.Metrics().Inc("follower.quorum.issued", 1)
	runtime.Emit(s.env, obs.Event{Type: obs.TypeQuorumChange,
		Epoch: s.store.Epoch(), Detail: q.String()})
	if s.onQuorum != nil {
		s.onQuorum(q)
	}
}

// SelectFollowers returns the leader's deterministic choice of count
// possible followers from l (Definition 2), or ok=false if fewer exist.
func SelectFollowers(l *graph.LineSubgraph, g *graph.Graph, count int) ([]ids.ProcessID, bool) {
	cand := candidates(l, g)
	if len(cand) < count {
		return cand, false
	}
	return cand[:count], true
}

// candidates lists l's possible followers, the leader excluded, in the
// order a leader picks them: processes without a suspicion edge to the
// leader in g first, then lower identifiers — minimizing immediate
// no-leader-suspicion violations.
func candidates(l *graph.LineSubgraph, g *graph.Graph) []ids.ProcessID {
	leader := l.Leader()
	var clean, tainted []ids.ProcessID
	for _, p := range l.PossibleFollowers() {
		if p == leader {
			continue
		}
		if leader != ids.None && g.HasEdge(leader, p) {
			tainted = append(tainted, p)
		} else {
			clean = append(clean, p)
		}
	}
	return append(clean, tainted...)
}

func toWireEdges(es []graph.Edge) []wire.Edge {
	out := make([]wire.Edge, len(es))
	for i, e := range es {
		out[i] = wire.Edge{U: e.U, V: e.V}
	}
	return out
}

func fromWireEdges(es []wire.Edge) []graph.Edge {
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		out[i] = graph.Edge{U: e.U, V: e.V}
	}
	return out
}

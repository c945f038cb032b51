// Package suspicion implements the eventually-consistent suspicion
// data structure of Algorithm 1 (§VI-A): an n×n matrix where entry
// [l][k] records the last epoch in which process l suspected process k.
//
// Rows are owned: only process l's signature can update row l. Updates
// are broadcast, merged by pointwise maximum, and forwarded on change,
// so the matrix is a join-semilattice CRDT — correct processes converge
// to the same state regardless of delivery order, even when faulty
// processes equivocate (send different updates to different processes):
// as the paper observes, equivocation only makes the merged state grow
// faster.
//
// Forwarding deviates from Algorithm 1 line 23, which re-broadcasts a
// changed row to all n−1 peers: a store forwards it only to its next
// min(f+1, n−1) processes in ring order. Among any f+1 consecutive
// processes one is correct, so every correct process's state is
// eventually covered by the next correct process's, and going round the
// ring every correct process ends in the same state (Lemma 1's premise).
// A row then costs the owner's n sends (self-copy included) plus
// (n−1)(f+1) forwards instead of (n−1)². A correct owner still reaches
// everyone in one hop; a row a Byzantine owner hands to a single correct
// process needs at most ⌈(n−1)/(f+1)⌉+2 hops (DESIGN.md §1).
//
// The suspect graph of §VI-B is maintained incrementally: every matrix
// write updates a version-stamped cached graph edge-by-edge, and epoch
// advances prune stale edges in O(edges), so selectors obtain the graph
// in O(changed edges) instead of the former O(n²) rebuild. The cache is
// copy-on-write: SuspectGraph hands out the cached instance as an
// immutable snapshot, and the next mutation clones it first, so readers
// on other goroutines (metrics frontends, tests) are race-free.
//
// Paper typo adopted (see DESIGN.md): Algorithm 1 line 14 reads
// suspected[j][i] ← epoch, but every other use makes the row index the
// suspecting process, so the local stamp is suspected[i][j] ← epoch.
package suspicion

import (
	"fmt"
	"sync"

	"quorumselect/internal/graph"
	"quorumselect/internal/ids"
	"quorumselect/internal/metrics"
	"quorumselect/internal/obs"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// Options configures a Store.
type Options struct {
	// Forward controls forwarding of changed updates to the f+1 ring
	// successors (Algorithm 1 line 23, see the package comment).
	// Disabling it is the E10(a) ablation: correct processes then only
	// converge if the original sender reaches everyone directly.
	Forward bool
}

// DefaultOptions returns the configuration every deployment runs:
// forwarding on.
func DefaultOptions() Options { return Options{Forward: true} }

// Store is one process's replica of the suspicion matrix, together
// with the epoch counter and current local suspicions of Algorithm 1.
type Store struct {
	env  runtime.Env
	opts Options
	cfg  ids.Config
	// forwardTo is where a changed row goes: forwardTargets of self.
	forwardTo []ids.ProcessID

	// mu guards the matrix, epoch, and the cached suspect graph. The
	// protocol itself is single-threaded; the lock exists so that
	// SuspectGraph readers on other goroutines (metrics frontends,
	// race tests) see a consistent cache. It is never held across
	// broadcasts or the onChange hook, which may re-enter the Store.
	mu         sync.RWMutex
	epoch      uint64
	suspecting ids.ProcSet
	matrix     [][]uint64
	nonzero    int    // count of non-zero matrix cells (cells are monotone)
	maxEpoch   uint64 // running max over all matrix cells

	// Incremental suspect-graph cache for the current epoch.
	cache       *graph.Graph
	cacheShared bool   // handed out by SuspectGraph; clone before mutating
	version     uint64 // bumped whenever the cached graph's edge set changes

	onChange  func()
	persister Persister
	m         storeMetrics
}

// storeMetrics are the series the UPDATE path touches, resolved at Bind.
type storeMetrics struct {
	broadcast, merged, forwarded, malformed, epochAdvanced, cowClones *metrics.CounterHandle

	changedCells *metrics.HistHandle  // suspicion.merge.changed.cells
	size, epoch  *metrics.GaugeHandle // per node
}

// Persister receives every monotone matrix write and epoch advance so
// a durable log can record them before the store acts on the change
// (broadcast, forward, onChange). The replica host implements it over
// internal/storage; cell indices are 0-based matrix coordinates. The
// hooks are invoked outside the store's lock but on the owning event
// loop, in the order the writes happened.
type Persister interface {
	PersistCell(l, k int, epoch uint64)
	PersistEpoch(epoch uint64)
}

// persistedCell is one matrix write queued for the persister.
type persistedCell struct {
	l, k  int
	epoch uint64
}

// New returns a Store for the given configuration with epoch 1 and an
// all-zero matrix, matching Algorithm 1's initial state.
func New(cfg ids.Config, opts Options) *Store {
	m := make([][]uint64, cfg.N)
	for i := range m {
		m[i] = make([]uint64, cfg.N)
	}
	return &Store{
		opts:    opts,
		cfg:     cfg,
		epoch:   1,
		matrix:  m,
		cache:   graph.New(cfg.N),
		version: 1,
	}
}

// Bind attaches the store to its environment. onChange fires after any
// merge that changed the matrix — the selector's updateQuorum hook
// (Algorithm 1 line 24).
func (s *Store) Bind(env runtime.Env, onChange func()) {
	s.env = env
	s.onChange = onChange
	s.forwardTo = forwardTargets(s.cfg, env.ID())
	reg := env.Metrics()
	s.m = storeMetrics{
		broadcast:     reg.CounterHandle("suspicion.update.broadcast"),
		merged:        reg.CounterHandle("suspicion.update.merged"),
		forwarded:     reg.CounterHandle("suspicion.update.forwarded"),
		malformed:     reg.CounterHandle("suspicion.update.malformed"),
		epochAdvanced: reg.CounterHandle("suspicion.epoch.advanced"),
		cowClones:     reg.CounterHandle("suspicion.graph.cow_clones"),
		changedCells:  reg.HistHandle("suspicion.merge.changed.cells"),
		size:          runtime.NodeGauge(env, "suspicion.store.size"),
		epoch:         runtime.NodeGauge(env, "suspicion.epoch"),
	}
	runtime.NodeGauge(env, "graph.n").Set(float64(s.cfg.N))
}

// forwardTargets returns the processes self forwards a changed row to:
// its f+1 ring successors, where f is the config's failure threshold.
func forwardTargets(cfg ids.Config, self ids.ProcessID) []ids.ProcessID {
	return ringSuccessors(self, cfg.N, cfg.F+1)
}

// ringSuccessors returns the min(k, n−1) processes after self in ring
// order: self+1, …, self+k (mod n).
func ringSuccessors(self ids.ProcessID, n, k int) []ids.ProcessID {
	out := make([]ids.ProcessID, min(k, n-1))
	for i := range out {
		out[i] = ids.ProcessID((int(self)+i)%n + 1)
	}
	return out
}

// SetPersister installs the durable-log hook. Call it after restoring
// state (RestoreCell/RestoreEpoch) so recovery replay is not
// re-persisted.
func (s *Store) SetPersister(p Persister) { s.persister = p }

// RestoreCell re-applies a persisted matrix write during recovery:
// matrix[l][k] is raised to epoch with no broadcast, no forwarding, no
// onChange, and no re-persist. Out-of-range indices are ignored (a
// durable log from a different configuration must not panic the host).
func (s *Store) RestoreCell(l, k int, epoch uint64) {
	if l < 0 || l >= s.cfg.N || k < 0 || k >= s.cfg.N {
		return
	}
	s.mu.Lock()
	s.stampCell(l, k, epoch)
	s.mu.Unlock()
}

// RestoreEpoch fast-forwards the epoch during recovery, silently.
func (s *Store) RestoreEpoch(e uint64) {
	s.mu.Lock()
	s.advanceEpochLocked(e)
	s.mu.Unlock()
}

func (s *Store) persistCells(cells []persistedCell) {
	if s.persister == nil {
		return
	}
	for _, c := range cells {
		s.persister.PersistCell(c.l, c.k, c.epoch)
	}
}

// Epoch returns the current epoch.
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Suspecting returns the processes this process currently suspects (a
// copy of the variable `suspecting` of Algorithm 1).
func (s *Store) Suspecting() ids.ProcSet { return s.suspecting }

// Value returns matrix[l][k]: the last epoch in which l suspected k.
func (s *Store) Value(l, k ids.ProcessID) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.matrix[s.idx(l)][s.idx(k)]
}

// Row returns a copy of l's suspicion row.
func (s *Store) Row(l ids.ProcessID) []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]uint64(nil), s.matrix[s.idx(l)]...)
}

func (s *Store) idx(p ids.ProcessID) int {
	if !p.Valid(s.cfg.N) {
		panic(fmt.Sprintf("suspicion: %s outside Π with n=%d", p, s.cfg.N))
	}
	return int(p) - 1
}

// mutableCache returns the cache ready for mutation, cloning it first
// if the current instance has been handed out to readers. Callers must
// hold mu.
func (s *Store) mutableCache() *graph.Graph {
	if s.cacheShared {
		s.cache = s.cache.Clone()
		s.cacheShared = false
		if s.env != nil {
			s.m.cowClones.Inc()
		}
	}
	return s.cache
}

// stampCell raises matrix[l][k] to e (cells are monotone; lower values
// are ignored), maintaining the nonzero count, the running max epoch,
// and the cached suspect graph. It reports whether the cell changed.
// Callers must hold mu.
func (s *Store) stampCell(l, k int, e uint64) bool {
	if e <= s.matrix[l][k] {
		return false
	}
	if s.matrix[l][k] == 0 {
		s.nonzero++
	}
	s.matrix[l][k] = e
	if e > s.maxEpoch {
		s.maxEpoch = e
	}
	// {l, k} is a suspect-graph edge iff either direction is stamped in
	// the current epoch or later. Cells only grow, so a write can only
	// add the edge, never remove it.
	if l != k && e >= s.epoch {
		u, v := ids.ProcessID(l+1), ids.ProcessID(k+1)
		if !s.cache.HasEdge(u, v) {
			s.mutableCache().AddEdge(u, v)
			s.version++
		}
	}
	return true
}

// advanceEpochLocked moves the epoch to e and prunes cached edges no
// longer justified at the new epoch in O(edges). Callers must hold mu.
func (s *Store) advanceEpochLocked(e uint64) {
	if e <= s.epoch {
		return
	}
	s.epoch = e
	// Edges can only disappear when the epoch moves forward: an edge
	// {u, v} survives iff one direction is stamped ≥ the new epoch.
	removed := s.mutableCache().PruneEdges(func(u, v ids.ProcessID) bool {
		ui, vi := int(u)-1, int(v)-1
		return s.matrix[ui][vi] >= e || s.matrix[vi][ui] >= e
	})
	if removed > 0 {
		s.version++
	}
}

// UpdateSuspicions is Algorithm 1's updateSuspicions(S): record S as
// the current suspicions, stamp them with the current epoch in the own
// row, and broadcast the signed row to all processes including self.
//
// Deviation from the pseudocode's event plumbing: Algorithm 1 relies on
// the self-addressed UPDATE to re-enter updateQuorum, but the UPDATE
// handler only reacts to rows *greater* than the stored ones — and the
// local row was already stamped before broadcasting, so the self-copy
// merges as a no-op and the issuing process itself would never
// re-evaluate. We therefore fire onChange directly here whenever the
// stamping changed the matrix. (The self-broadcast is kept: it is
// harmless and preserves the paper's message pattern.)
func (s *Store) UpdateSuspicions(suspected ids.ProcSet) {
	s.suspecting = suspected
	self := s.idx(s.env.ID())
	s.mu.Lock()
	var cells []persistedCell
	for p := suspected.Next(ids.None); p != ids.None; p = suspected.Next(p) {
		if k := s.idx(p); s.stampCell(self, k, s.epoch) {
			cells = append(cells, persistedCell{self, k, s.epoch})
		}
	}
	row := append([]uint64(nil), s.matrix[self]...)
	s.mu.Unlock()
	changed := len(cells) > 0
	// Persist before broadcasting: a stamped suspicion that reached
	// the network must survive a local restart.
	s.persistCells(cells)
	if changed {
		s.updateSizeGauge()
	}
	up := &wire.Update{
		Owner: s.env.ID(),
		Row:   row,
	}
	runtime.Sign(s.env, up)
	s.m.broadcast.Inc()
	runtime.Broadcast(s.env, up, true)
	if changed && s.onChange != nil {
		s.onChange()
	}
}

// AdvanceEpoch increments the epoch (Algorithm 1 line 28) and re-issues
// the current suspicions in the new epoch (line 29).
func (s *Store) AdvanceEpoch() {
	s.IncrementEpoch()
	s.UpdateSuspicions(s.suspecting)
}

// IncrementEpoch bumps the epoch without re-issuing suspicions.
// Algorithm 2 (Follower Selection) needs the two steps separated: it
// cancels expectations and installs the default quorum between them
// (lines 10–15).
func (s *Store) IncrementEpoch() {
	s.mu.Lock()
	next := s.epoch + 1
	s.advanceEpochLocked(next)
	s.mu.Unlock()
	if s.persister != nil {
		s.persister.PersistEpoch(next)
	}
	s.m.epochAdvanced.Inc()
	s.m.epoch.Set(float64(next))
	runtime.Emit(s.env, obs.Event{Type: obs.TypeEpochAdvance, Epoch: next})
}

// ObserveEpoch fast-forwards the local epoch when merged suspicions
// show that another process already reached a later epoch. Without it
// the store is still correct (the local process catches up by
// advancing through intermediate epochs); with it convergence needs
// fewer rounds. It never moves the epoch backwards.
func (s *Store) ObserveEpoch(e uint64) {
	s.mu.Lock()
	moved := e > s.epoch
	s.advanceEpochLocked(e)
	s.mu.Unlock()
	if moved {
		if s.persister != nil {
			s.persister.PersistEpoch(e)
		}
		s.m.epoch.Set(float64(e))
	}
}

// HandleUpdate merges a (signature-verified) UPDATE message into the
// matrix (Algorithm 1 lines 16-24). It returns true if the local state
// changed; in that case the same signed message was forwarded to the
// f+1 ring successors (when Options.Forward is set) and the onChange
// hook fired.
func (s *Store) HandleUpdate(m *wire.Update) bool {
	if !m.Owner.Valid(s.cfg.N) || len(m.Row) != s.cfg.N {
		s.m.malformed.Inc()
		return false
	}
	owner := s.idx(m.Owner)
	s.mu.Lock()
	var cells []persistedCell
	for k, v := range m.Row {
		if s.stampCell(owner, k, v) {
			cells = append(cells, persistedCell{owner, k, v})
		}
	}
	s.mu.Unlock()
	if len(cells) == 0 {
		return false
	}
	changedCells := len(cells)
	// Persist before forwarding or re-evaluating the quorum.
	s.persistCells(cells)
	s.m.merged.Inc()
	s.m.changedCells.Observe(float64(changedCells))
	s.updateSizeGauge()
	if s.opts.Forward {
		s.m.forwarded.Inc()
		for _, p := range s.forwardTo {
			s.env.Send(p, m)
		}
	}
	if s.onChange != nil {
		s.onChange()
	}
	return true
}

// updateSizeGauge publishes the count of non-zero matrix cells — the
// store's "size" (how much suspicion history this replica has absorbed).
func (s *Store) updateSizeGauge() {
	s.mu.RLock()
	nonzero := s.nonzero
	s.mu.RUnlock()
	s.m.size.Set(float64(nonzero))
}

// SuspectGraph returns the suspect graph G of §VI-B for the current
// epoch e: nodes are Π, and {l, k} is an edge iff l suspected k in
// epoch e or later, or vice versa.
//
// The returned graph is the incrementally-maintained cache, handed out
// as an immutable snapshot: callers must not mutate it. Obtaining it is
// O(1); the store pays O(changed edges) at mutation time instead.
func (s *Store) SuspectGraph() *graph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cacheShared = true
	return s.cache
}

// GraphSnapshot returns the current suspect graph together with its
// version counter, under one lock acquisition. Selectors memoizing
// graph-derived results (the generalized quorum selection in core and
// follower) need the pair to be mutually consistent: reading them with
// two calls could pair an old graph with a new version and pin a stale
// memo.
func (s *Store) GraphSnapshot() (*graph.Graph, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cacheShared = true
	return s.cache, s.version
}

// GraphVersion returns a counter that changes whenever the edge set of
// SuspectGraph changes, letting selectors memoize derived results
// (e.g. the lexicographically-first independent set) per version.
func (s *Store) GraphVersion() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// SuspectGraphAt builds the suspect graph for an explicit epoch. For
// the current epoch it returns the cached graph; other epochs pay a
// full O(n²) rebuild (counted by suspicion.graph.rebuilds).
func (s *Store) SuspectGraphAt(epoch uint64) *graph.Graph {
	s.mu.Lock()
	if epoch == s.epoch {
		defer s.mu.Unlock()
		s.cacheShared = true
		return s.cache
	}
	s.mu.Unlock()
	return s.rebuildSuspectGraphAt(epoch)
}

// rebuildSuspectGraphAt constructs the suspect graph for an epoch from
// the full matrix, bypassing the incremental cache — the pre-cache code
// path, kept for arbitrary-epoch queries and as the oracle the
// incremental cache is tested against.
func (s *Store) rebuildSuspectGraphAt(epoch uint64) *graph.Graph {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.env != nil {
		s.env.Metrics().Inc("suspicion.graph.rebuilds", 1)
	}
	g := graph.New(s.cfg.N)
	for l := 0; l < s.cfg.N; l++ {
		for k := l + 1; k < s.cfg.N; k++ {
			if s.matrix[l][k] >= epoch || s.matrix[k][l] >= epoch {
				g.AddEdge(ids.ProcessID(l+1), ids.ProcessID(k+1))
			}
		}
	}
	return g
}

// MaxEpochSeen returns the largest epoch stamp anywhere in the matrix;
// used by selectors to detect that the system has moved on. It is a
// running maximum maintained on every matrix write, not a scan.
func (s *Store) MaxEpochSeen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.maxEpoch
}

// Snapshot returns a deep copy of the matrix for assertions.
func (s *Store) Snapshot() [][]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([][]uint64, len(s.matrix))
	for i, row := range s.matrix {
		out[i] = append([]uint64(nil), row...)
	}
	return out
}

package suspicion

import "quorumselect/internal/graph"

// RebuildSuspectGraphAt exposes the full-matrix rebuild to the external
// tests, which compare the incremental cache against it at the current
// epoch (where SuspectGraphAt returns the cache instead).
func (s *Store) RebuildSuspectGraphAt(epoch uint64) *graph.Graph {
	return s.rebuildSuspectGraphAt(epoch)
}

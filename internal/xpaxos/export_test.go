package xpaxos

import "runtime"

// HeapAllocated returns the bytes f allocates on the heap.
func HeapAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Inflight returns the maintained in-flight slot count the window gate
// reads.
func (r *Replica) Inflight() int { return r.inflight }

// InflightScan recomputes the in-flight count from the round state: the
// slots of the current view holding a prepare that have not committed.
// It was the window gate's definition before the count was maintained
// incrementally, and is kept as that count's oracle.
func (r *Replica) InflightScan() int {
	n := 0
	for _, s := range r.slots {
		if s.prep != nil && !s.committed {
			n++
		}
	}
	return n
}

// Forwarded returns how many forwarded requests the replica still
// tracks (forwarded and not yet seen executing).
func (r *Replica) Forwarded() int { return len(r.forwarded) }

// CheckpointBlob returns the latest stable checkpoint's bytes.
func (r *Replica) CheckpointBlob() []byte { return r.ckpt.Snapshot }

// DurableSnapshot returns the application section of the durable
// snapshot the replica would write now.
func (r *Replica) DurableSnapshot() []byte { return r.encodeDurable() }

// CommitsHeld returns how many COMMITs the replica keeps for slot, or
// -1 when it has no round state for the slot.
func (r *Replica) CommitsHeld(slot uint64) int {
	s, ok := r.slots[slot]
	if !ok || s.prep == nil {
		return -1
	}
	return s.committers.Len()
}

// LogSize reports the retained accepted prepares, for tests asserting
// that checkpointing bounds memory.
func (r *Replica) LogSize() int {
	size := 0
	for _, s := range r.slots {
		if s.accepted != nil {
			size++
		}
	}
	return size
}

// VoteViews returns how many views the replica holds VIEW-CHANGE votes
// for.
func (r *Replica) VoteViews() int { return len(r.vcVotes) }

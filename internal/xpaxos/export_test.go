package xpaxos

// Inflight returns the maintained in-flight slot count the window gate
// reads.
func (r *Replica) Inflight() int { return r.inflight }

// InflightScan recomputes the in-flight count from the round state: the
// slots of the current view holding a prepare that have not committed.
// It was the window gate's definition before the count was maintained
// incrementally, and is kept as that count's oracle.
func (r *Replica) InflightScan() int {
	n := 0
	for _, e := range r.entries {
		if e.prep != nil && !e.committed {
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

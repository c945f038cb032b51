package tendermint

// Pending returns how many requests the mempool holds and how many
// (client, seq) keys its dedupe map holds.
func (r *Replica) Pending() (mempool, seen int) { return len(r.mempool), len(r.seen) }

// Durable replica state (host.DurableApp) for the PBFT-style baseline.
// The baseline has no view changes and no checkpointing, so its durable
// footprint is minimal: one WAL record per committed slot — the slot
// number plus the deciding request — synced before execution, so a
// restarted replica re-executes exactly the history it acknowledged.
// The view is not persisted: it only advances on quorum adoption
// (ActiveQuorum), which the recovered suspicion matrix re-derives, and
// the baseline makes no cross-crash promises about in-flight views.
package pbftlite

import (
	"fmt"

	"quorumselect/internal/host"
	"quorumselect/internal/wire"
)

var _ host.DurableApp = (*Replica)(nil)

// persistCommitted logs a slot's deciding request and forces the group
// commit: the persist-before-act barrier ahead of execution. An error
// reaching this code is always a tolerated shutdown artifact — the host
// kernel fail-stops (panics) on any real persist failure before
// returning it (host.Host.storageErr), so what comes back here is
// storage.ErrCrashed after an injected crash or storage.ErrClosed when
// Stop raced; counted, not acted on.
func (r *Replica) persistCommitted(slot uint64, req *wire.Request) {
	if r.wal == nil || r.ledger.Recovering() {
		return
	}
	rec := committed{slot: slot, req: req}
	c := wire.NewEncoder(nil)
	rec.layout(c)
	if err := r.wal.Append(c.Encoded()); err != nil {
		r.env.Metrics().Inc("pbftlite.wal.errors", 1)
		return
	}
	if err := r.wal.Sync(); err != nil {
		r.env.Metrics().Inc("pbftlite.wal.errors", 1)
	}
}

// committed is the WAL record of a committed slot: the slot, then the
// deciding request's frame behind its length.
type committed struct {
	slot uint64
	req  wire.Message
}

func (rec *committed) layout(c *wire.Codec) {
	c.U64(&rec.slot)
	c.Frame(&rec.req)
}

// Recover implements host.DurableApp: replay the committed-slot records
// into the ledger and re-execute deterministically. Replay is invisible
// to clients (OnExecute is suppressed while recovering).
func (r *Replica) Recover(log host.AppLog, snapshot []byte, records [][]byte) error {
	r.wal = log
	if len(snapshot) > 0 {
		return fmt.Errorf("pbftlite: unexpected %d-byte snapshot (baseline writes none)", len(snapshot))
	}
	if len(records) == 0 {
		return nil
	}
	r.ledger.SetRecovering(true)
	defer r.ledger.SetRecovering(false)
	for i, data := range records {
		var rec committed
		c := wire.NewDecoder(data)
		rec.layout(c)
		if err := c.Decoded(); err != nil {
			return fmt.Errorf("pbftlite: record %d: %w", i, err)
		}
		req, ok := rec.req.(*wire.Request)
		if !ok {
			return fmt.Errorf("pbftlite: %T in committed record %d", rec.req, i)
		}
		slot := rec.slot
		r.ledger.Commit(slot, []*wire.Request{req})
		if slot >= r.nextSlot {
			r.nextSlot = slot + 1
		}
		if slot > r.maxSeen {
			r.maxSeen = slot
		}
	}
	r.ledger.ExecuteCommitted()
	r.env.Metrics().Inc("pbftlite.recoveries", 1)
	return nil
}

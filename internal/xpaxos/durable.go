// Durable replica state (host.DurableApp): what XPaxos must persist
// before acting, and how a restarted replica rebuilds itself.
//
// WAL records (first byte is the kind):
//
//	recView      — the view adopted at startViewChange, synced before
//	               the VIEW-CHANGE message is sent: a replica must not
//	               forget it abandoned a view.
//	recAccepted  — an accepted PREPARE, synced before this replica's
//	               COMMIT goes out: the COMMIT promises the prepare is
//	               part of the replica's log.
//	recCommitted — a slot's deciding PREPARE, synced before execution
//	               and before the commit certificate ships.
//	recVCVote    — a VIEW-CHANGE vote received by the incoming leader,
//	               synced before it counts toward installing the view
//	               (see DESIGN.md §10 for why votes hit disk first).
//
// The durable snapshot (written through host.AppLog.Snapshot whenever a
// checkpoint is taken or restored) carries the view, the proposal
// cursor, the checkpoint blob (state machine + client table), and the
// execution history, so recovery is snapshot + WAL-tail replay. Each
// record and the snapshot have one layout (record, durableSnapshot),
// which wire.NewEncoder and wire.NewDecoder run; the blob and the
// executions in the history are the Ledger's.
package xpaxos

import (
	"fmt"

	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/obs"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

const (
	recView      byte = 1
	recAccepted  byte = 2
	recCommitted byte = 3
	recVCVote    byte = 4
)

var _ host.DurableApp = (*Replica)(nil)

// persistRecord appends one durable record; persistSync is the
// persist-before-act barrier. An error reaching this code is always a
// tolerated shutdown artifact: the host kernel fail-stops (panics) on
// any real persist failure before returning it (host.Host.storageErr),
// so what comes back here is storage.ErrCrashed from the simulated
// backend after an injected power cut — when the process is already
// dead by fiat — or storage.ErrClosed when Stop raced the event loop.
// Those are counted, not acted on.
func (r *Replica) persistRecord(rec []byte) {
	if !r.persisting() {
		return
	}
	if err := r.wal.Append(rec); err != nil {
		r.env.Metrics().Inc("xpaxos.wal.errors", 1)
	}
}

// persistMessage appends a record of kind (recAccepted, recCommitted
// or recVCVote) carrying m's frame, encoded straight into r.rec: the
// WAL copies what it is given (host.AppLog), so the replica reuses the
// one buffer for every record. A replica without a WAL encodes nothing.
func (r *Replica) persistMessage(kind byte, m wire.Message) {
	if !r.persisting() {
		return
	}
	r.rec = encodeRecord(r.rec[:0], record{kind: kind, msg: m})
	r.persistRecord(r.rec)
}

// record is one WAL record: its kind, then the view (recView) or the
// message's frame behind its length (the other kinds).
type record struct {
	kind byte
	view uint64
	msg  wire.Message
}

func (rec *record) layout(c *wire.Codec) {
	c.U8(&rec.kind)
	switch rec.kind {
	case recView:
		c.U64(&rec.view)
	case recAccepted, recCommitted, recVCVote:
		c.Frame(&rec.msg)
	}
}

func encodeRecord(dst []byte, rec record) []byte {
	c := wire.NewEncoder(dst)
	rec.layout(c)
	return c.Encoded()
}

// persisting reports whether records reach the WAL: there is one, and
// the replica is not replaying it.
func (r *Replica) persisting() bool { return r.wal != nil && !r.ledger.Recovering() }

func (r *Replica) persistSync() {
	if !r.persisting() {
		return
	}
	if err := r.wal.Sync(); err != nil {
		r.env.Metrics().Inc("xpaxos.wal.errors", 1)
	}
}

// persistSnapshot writes the durable snapshot through the host log,
// compacting the WAL. Called wherever the in-memory checkpoint moves.
func (r *Replica) persistSnapshot() {
	if !r.persisting() {
		return
	}
	if err := r.wal.Snapshot(r.encodeDurable()); err != nil {
		r.env.Metrics().Inc("xpaxos.wal.errors", 1)
	}
}

// durableSnapshot is the replica's application section of the durable
// snapshot: the view, the proposal cursor, the checkpoint slot and blob,
// then the execution history — the count, then the executions, kept as
// the Ledger keeps them. The history rides along so a recovered replica
// reports the same history prefix it acknowledged before the crash (the
// chaos history checker compares cross-replica histories index-wise); a
// production system would persist only the checkpoint and align by
// slot.
type durableSnapshot struct {
	view, nextSlot, ckptSlot uint64
	ckpt                     []byte
	executed                 uint32
	history                  []byte
}

func (d *durableSnapshot) layout(c *wire.Codec) {
	c.U64(&d.view)
	c.U64(&d.nextSlot)
	c.U64(&d.ckptSlot)
	c.Bytes(&d.ckpt)
	c.Records(&d.executed, &d.history, func(c *wire.Codec) {
		var e Execution
		e.layout(c)
	})
}

func (r *Replica) encodeDurable() []byte {
	d := durableSnapshot{view: r.view, nextSlot: r.nextSlot, ckptSlot: r.ckpt.Slot, ckpt: r.ckpt.Snapshot,
		executed: r.ledger.executed, history: r.ledger.history}
	c := wire.NewEncoder(nil)
	d.layout(c)
	return c.Encoded()
}

func (r *Replica) restoreDurable(data []byte) error {
	var d durableSnapshot
	c := wire.NewDecoder(data)
	d.layout(c)
	if err := c.Decoded(); err != nil {
		return fmt.Errorf("xpaxos: corrupt durable snapshot: %w", err)
	}
	if d.ckptSlot > 0 && len(d.ckpt) > 0 {
		if err := r.restoreCheckpoint(d.ckptSlot, d.ckpt); err != nil {
			return err
		}
	}
	r.ledger.history, r.ledger.executed = d.history, d.executed
	if d.view > r.view {
		r.view = d.view
	}
	if d.nextSlot > r.nextSlot {
		r.nextSlot = d.nextSlot
	}
	return nil
}

func (r *Replica) replayRecord(data []byte) error {
	var rec record
	c := wire.NewDecoder(data)
	rec.layout(c)
	if err := c.Decoded(); err != nil {
		return err
	}
	switch rec.kind {
	case recView:
		if rec.view > r.view {
			r.view = rec.view
		}
	case recAccepted, recCommitted:
		p, ok := rec.msg.(*wire.Prepare)
		if !ok {
			return fmt.Errorf("xpaxos: %T in prepare record", rec.msg)
		}
		r.slot(p.Slot).accept(p)
		if rec.kind == recCommitted {
			r.ledger.Commit(p.Slot, p.Requests())
		}
		if p.Slot >= r.nextSlot {
			r.nextSlot = p.Slot + 1
		}
		if p.View > r.view {
			r.view = p.View
		}
	case recVCVote:
		vc, ok := rec.msg.(*wire.ViewChange)
		if !ok {
			return fmt.Errorf("xpaxos: %T in view-change record", rec.msg)
		}
		votes, have := r.vcVotes[vc.NewViewNum]
		if !have {
			votes = make(map[ids.ProcessID]*wire.ViewChange)
			r.vcVotes[vc.NewViewNum] = votes
		}
		votes[vc.Replica] = vc
	default:
		return fmt.Errorf("xpaxos: unknown record kind %d", rec.kind)
	}
	return nil
}

// Recover implements host.DurableApp: install the durable snapshot,
// replay the WAL tail in append order, then resume from the recovered
// view. A recovered replica restarts in normal case (changing=false):
// if it crashed mid view change, the vote it synced is still in
// vcVotes/accepted, and the failure detector re-drives the view change
// if the view never installed — recovery must not block on peers
// resending votes they already sent.
func (r *Replica) Recover(log host.AppLog, snapshot []byte, records [][]byte) error {
	r.wal = log
	if len(snapshot) == 0 && len(records) == 0 {
		return nil
	}
	r.ledger.SetRecovering(true)
	defer r.ledger.SetRecovering(false)
	if len(snapshot) > 0 {
		if err := r.restoreDurable(snapshot); err != nil {
			return err
		}
	}
	replayed := 0
	for _, rec := range records {
		if err := r.replayRecord(rec); err != nil {
			// A record the CRC accepted but the codec rejects means
			// the schema changed underneath the log; surface it.
			return fmt.Errorf("xpaxos: replaying record %d: %w", replayed, err)
		}
		replayed++
	}
	// The log holds the votes of every view this replica led; keep only
	// the recovered view's.
	r.dropStaleVotes()
	r.active = r.quorumAt(r.view)
	r.changing = false
	if last := r.ledger.LastExecuted(); r.nextSlot <= last {
		r.nextSlot = last + 1
	}
	// Re-execute whatever the replayed committed slots allow; the
	// OnExecute callback and checkpointing are suppressed (recovering)
	// so replay is invisible to clients.
	r.execute()
	lastExec := r.ledger.LastExecuted()
	r.m.view.Set(float64(r.view))
	r.env.Metrics().Inc("xpaxos.recoveries", 1)
	runtime.Emit(r.env, obs.Event{Type: obs.TypeLifecycle, View: r.view, Slot: lastExec,
		Detail: fmt.Sprintf("xpaxos recovered: view=%d lastExec=%d records=%d", r.view, lastExec, replayed)})
	return nil
}

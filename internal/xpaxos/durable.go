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
// execution history, so recovery is snapshot + WAL-tail replay. This
// file encodes the first three fields; the blob and the history
// section are the Ledger's codecs.
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

// persistPrepare appends a recAccepted or recCommitted record of p. It
// asks whether anything is persisted before encoding the record: a
// replica without a WAL spends nothing on it.
func (r *Replica) persistPrepare(kind byte, p *wire.Prepare) {
	if r.persisting() {
		r.persistRecord(recPrepareBytes(kind, p))
	}
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

func recViewBytes(v uint64) []byte {
	var b wire.Buffer
	b.PutUint8(recView)
	b.PutUint64(v)
	return b.Bytes()
}

func recPrepareBytes(kind byte, p *wire.Prepare) []byte {
	var b wire.Buffer
	b.PutUint8(kind)
	b.PutBytes(wire.Encode(p))
	return b.Bytes()
}

func recVoteBytes(vc *wire.ViewChange) []byte {
	var b wire.Buffer
	b.PutUint8(recVCVote)
	b.PutBytes(wire.Encode(vc))
	return b.Bytes()
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

// encodeDurable serializes the replica's application section of the
// durable snapshot. The execution history rides along so a recovered
// replica reports the same history prefix it acknowledged before the
// crash (the chaos history checker compares cross-replica histories
// index-wise); a production system would persist only the checkpoint
// and align by slot.
func (r *Replica) encodeDurable() []byte {
	var b wire.Buffer
	b.PutUint64(r.view)
	b.PutUint64(r.nextSlot)
	b.PutUint64(r.ckpt.Slot)
	b.PutBytes(r.ckpt.Snapshot)
	r.ledger.appendHistory(&b)
	return b.Bytes()
}

func (r *Replica) restoreDurable(data []byte) error {
	rd := wire.NewReader(data)
	view, err := rd.Uint64()
	if err != nil {
		return fmt.Errorf("xpaxos: durable snapshot view: %w", err)
	}
	nextSlot, err := rd.Uint64()
	if err != nil {
		return fmt.Errorf("xpaxos: durable snapshot nextSlot: %w", err)
	}
	ckptSlot, err := rd.Uint64()
	if err != nil {
		return fmt.Errorf("xpaxos: durable snapshot ckptSlot: %w", err)
	}
	ckptData, err := rd.Bytes()
	if err != nil {
		return fmt.Errorf("xpaxos: durable snapshot checkpoint: %w", err)
	}
	if err := r.ledger.readHistory(rd); err != nil {
		return err
	}
	if view > r.view {
		r.view = view
	}
	if ckptSlot > 0 && len(ckptData) > 0 {
		if err := r.restoreCheckpoint(ckptSlot, ckptData); err != nil {
			return err
		}
	}
	if nextSlot > r.nextSlot {
		r.nextSlot = nextSlot
	}
	return nil
}

func (r *Replica) replayRecord(rec []byte) error {
	rd := wire.NewReader(rec)
	kind, err := rd.Uint8()
	if err != nil {
		return err
	}
	switch kind {
	case recView:
		v, err := rd.Uint64()
		if err != nil {
			return err
		}
		if v > r.view {
			r.view = v
		}
	case recAccepted, recCommitted:
		data, err := rd.Bytes()
		if err != nil {
			return err
		}
		m, err := wire.Decode(data)
		if err != nil {
			return err
		}
		p, ok := m.(*wire.Prepare)
		if !ok {
			return fmt.Errorf("xpaxos: %T in prepare record", m)
		}
		if cur, have := r.accepted[p.Slot]; !have || p.View >= cur.View {
			r.accepted[p.Slot] = p
		}
		if kind == recCommitted {
			r.ledger.Commit(p.Slot, p.Requests())
		}
		if p.Slot >= r.nextSlot {
			r.nextSlot = p.Slot + 1
		}
		if p.View > r.view {
			r.view = p.View
		}
	case recVCVote:
		data, err := rd.Bytes()
		if err != nil {
			return err
		}
		m, err := wire.Decode(data)
		if err != nil {
			return err
		}
		vc, ok := m.(*wire.ViewChange)
		if !ok {
			return fmt.Errorf("xpaxos: %T in view-change record", m)
		}
		votes, have := r.vcVotes[vc.NewViewNum]
		if !have {
			votes = make(map[ids.ProcessID]*wire.ViewChange)
			r.vcVotes[vc.NewViewNum] = votes
		}
		votes[vc.Replica] = vc
	default:
		return fmt.Errorf("xpaxos: unknown record kind %d", kind)
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

// Durable state threading: the kernel owns the storage.Store, tags WAL
// records by module (suspicion matrix vs application), composes the
// two-section snapshot, and drives recovery at Init in dependency
// order — suspicion state first, then the application, then one quorum
// re-evaluation over the restored suspect graph.
package host

import (
	"errors"
	"fmt"
	"time"

	"quorumselect/internal/obs"
	"quorumselect/internal/runtime"
	"quorumselect/internal/storage"
	"quorumselect/internal/wire"
)

// WAL record tags: the first byte of every host-level record names the
// module that owns the payload.
const (
	tagSuspicion byte = 1
	tagApp       byte = 2
)

// Suspicion record kinds (second byte under tagSuspicion).
const (
	susKindCell  byte = 1
	susKindEpoch byte = 2
)

// AppLog is the slice of the durable store the kernel hands a
// DurableApp: appends are tagged as application records, Sync is the
// persist-before-act barrier, and Snapshot atomically replaces the WAL
// with a snapshot composed of the kernel's suspicion section plus the
// application payload.
type AppLog interface {
	// Append writes one application record to the WAL (durable after
	// the next group commit). The record is copied: the caller may
	// reuse rec once Append returns.
	Append(rec []byte) error
	// Sync forces the group commit: every prior Append is durable when
	// it returns without error.
	Sync() error
	// Snapshot installs app as the application section of a new
	// snapshot covering the whole log so far.
	Snapshot(app []byte) error
}

// DurableApp is the optional durability extension of App: an
// application that persists records through the AppLog implements it to
// be handed its recovered state before the host starts delivering
// traffic. Recover runs after Attach and may be called with a nil
// snapshot and no records (fresh start).
type DurableApp interface {
	App
	Recover(log AppLog, snapshot []byte, records [][]byte) error
}

// appLog implements AppLog over the host's store.
type appLog struct{ h *Host }

func (l appLog) Append(rec []byte) error { return l.h.appendTagged(tagApp, rec) }

func (l appLog) Sync() error {
	if l.h.storage == nil {
		return storage.ErrClosed
	}
	return l.h.storageErr("sync", l.h.storage.Sync())
}

func (l appLog) Snapshot(app []byte) error {
	if l.h.storage == nil {
		return storage.ErrClosed
	}
	snap := snapshot{suspicion: l.h.encodeSuspicionState(), app: app}
	c := wire.NewEncoder(nil)
	snap.layout(c)
	return l.h.storageErr("snapshot", l.h.storage.WriteSnapshot(c.Encoded()))
}

// snapshot is the host's snapshot: the suspicion section, then the
// application's, each behind its length. A section may exceed the 1 MiB
// a network frame's slice may hold: the snapshot is local durable bytes
// (wire.NewDecoder).
type snapshot struct{ suspicion, app []byte }

func (s *snapshot) layout(c *wire.Codec) {
	c.Bytes(&s.suspicion)
	c.Bytes(&s.app)
}

// appendTagged writes tag + payload as one WAL record, built in h.rec:
// the store copies what it is given, so the host reuses one buffer for
// every record.
func (h *Host) appendTagged(tag byte, payload []byte) error {
	if h.storage == nil {
		return storage.ErrClosed
	}
	h.rec = append(append(h.rec[:0], tag), payload...)
	return h.storageErr("append", h.storage.Append(h.rec))
}

// storageErr is the kernel's durability failure policy. ErrCrashed (a
// MemBackend after an injected power cut — the process is already dead
// by fiat) and ErrClosed (Stop raced the event loop) are shutdown
// artifacts: counted and returned for the caller to tolerate. Anything
// else is a real backend refusing to persist (ENOSPC, EIO, an oversized
// record): Store errors are sticky, so from this point every
// persist-before-act barrier would silently pass while nothing reaches
// disk — the replica would keep sending COMMITs and view-change votes
// with zero durability behind them, breaking the fork-safety argument
// of DESIGN.md §10. A durable replica that cannot persist must
// fail-stop, so the kernel panics.
func (h *Host) storageErr(op string, err error) error {
	if err == nil {
		return nil
	}
	h.env.Metrics().Inc("host.storage.errors", 1)
	if errors.Is(err, storage.ErrCrashed) || errors.Is(err, storage.ErrClosed) {
		return err
	}
	// Last act before the fail-stop: dump the flight recorder so the
	// causal timeline leading into the persist failure survives the
	// process.
	obs.WriteCrash(fmt.Sprintf("durable %s failed: %v", op, err), h.env.Events())
	panic(fmt.Sprintf("host: durable %s failed: %v — halting: continuing without durability would break persist-before-act (DESIGN.md §10)", op, err))
}

// openStorage opens (and thereby recovers) the durable store, restores
// the suspicion matrix, replays application records into the
// DurableApp, installs the suspicion persister, and re-evaluates the
// quorum over the restored suspect graph. A host configured for
// durability must not run without it, so open failures panic.
func (h *Host) openStorage(env runtime.Env) {
	st, err := storage.Open(h.opts.Storage, storage.Options{
		Metrics: env.Metrics(),
		After: func(d time.Duration, fn func()) storage.Timer {
			return env.After(d, fn)
		},
	})
	if err != nil {
		panic(fmt.Sprintf("host: open storage: %v", err))
	}
	h.storage = st
	data, records := st.Recovered()

	var appSnap []byte
	restored := false
	if data != nil {
		var snap snapshot
		c := wire.NewDecoder(data)
		snap.layout(c)
		if err := c.Decoded(); err != nil {
			panic(fmt.Sprintf("host: corrupt snapshot framing (walIndex %d): %v", st.SnapshotIndex(), err))
		}
		appSnap = snap.app
		if h.restoreSuspicionState(snap.suspicion) {
			restored = true
		}
	}
	appRecs := records[:0]
	for _, rec := range records {
		switch {
		case len(rec) == 0:
			// Unreachable: the store rejects empty records.
		case rec[0] == tagSuspicion:
			if h.restoreSuspicionRecord(rec[1:]) {
				restored = true
			}
		case rec[0] == tagApp:
			appRecs = append(appRecs, rec[1:])
		default:
			env.Metrics().Inc("host.storage.unknown_records", 1)
		}
	}
	if da, ok := h.opts.App.(DurableApp); ok {
		if err := da.Recover(appLog{h}, appSnap, appRecs); err != nil {
			panic(fmt.Sprintf("host: application recovery: %v", err))
		}
	}
	if h.Store != nil {
		h.Store.SetPersister(storePersister{h})
	}
	if restored && h.Selection != nil {
		// The restored matrix may imply a different quorum than the
		// initial one; re-evaluate before any traffic is delivered.
		h.Selection.UpdateQuorum()
	}
	env.Metrics().Inc("host.storage.recoveries", 1)
}

// closeStorage flushes and closes the WAL at Stop. Close errors are
// observable but not fatal: on a crashed in-memory backend (chaos
// hard-crash) the final flush is expected to fail.
func (h *Host) closeStorage() {
	if h.storage == nil {
		return
	}
	if err := h.storage.Close(); err != nil {
		h.env.Metrics().Inc("host.storage.close_errors", 1)
	}
	h.storage = nil
}

// storePersister routes suspicion-store writes into tagged WAL
// records. Cell and epoch records are appended without a forced sync:
// losing a suffix of monotone CRDT writes is safe (the matrix re-merges
// from peers), so suspicion durability rides the group-commit batch and
// the max-latency flush timer.
type storePersister struct{ h *Host }

func (p storePersister) PersistCell(l, k int, epoch uint64) {
	p.persist(suspicionRecord{kind: susKindCell, cell: cell{uint32(l), uint32(k), epoch}})
}

func (p storePersister) PersistEpoch(epoch uint64) {
	p.persist(suspicionRecord{kind: susKindEpoch, epoch: epoch})
}

func (p storePersister) persist(rec suspicionRecord) {
	c := wire.NewEncoder(nil)
	rec.layout(c)
	_ = p.h.appendTagged(tagSuspicion, c.Encoded())
}

// cell is one suspicion-matrix entry: row l suspects column k since
// epoch v.
type cell struct {
	l, k uint32
	v    uint64
}

func (x *cell) layout(c *wire.Codec) {
	c.U32(&x.l)
	c.U32(&x.k)
	c.U64(&x.v)
}

// suspicionRecord is a suspicion WAL record: its kind, then a cell
// (susKindCell) or the epoch (susKindEpoch).
type suspicionRecord struct {
	kind  byte
	cell  cell
	epoch uint64
}

func (r *suspicionRecord) layout(c *wire.Codec) {
	c.U8(&r.kind)
	switch r.kind {
	case susKindCell:
		r.cell.layout(c)
	case susKindEpoch:
		c.U64(&r.epoch)
	}
}

// suspicionState is the kernel section of a snapshot: the epoch, the
// cluster size n, then every non-zero cell.
type suspicionState struct {
	epoch uint64
	n     uint32
	cells []cell
}

func (s *suspicionState) layout(c *wire.Codec) {
	c.U64(&s.epoch)
	c.U32(&s.n)
	for i := range wire.Elems(c, &s.cells, 16) {
		s.cells[i].layout(c)
	}
}

// encodeSuspicionState encodes the suspicion matrix and epoch as the
// kernel section of a snapshot.
func (h *Host) encodeSuspicionState() []byte {
	if h.Store == nil {
		return nil
	}
	matrix := h.Store.Snapshot()
	s := suspicionState{epoch: h.Store.Epoch(), n: uint32(len(matrix))}
	for l, row := range matrix {
		for k, v := range row {
			if v != 0 {
				s.cells = append(s.cells, cell{uint32(l), uint32(k), v})
			}
		}
	}
	c := wire.NewEncoder(nil)
	s.layout(c)
	return c.Encoded()
}

// restoreSuspicionState re-applies an encoded matrix section; it
// reports whether anything was restored. A section that does not decode,
// or comes from a different cluster size, is skipped (counted, not
// fatal).
func (h *Host) restoreSuspicionState(data []byte) bool {
	if h.Store == nil || len(data) == 0 {
		return false
	}
	var s suspicionState
	c := wire.NewDecoder(data)
	s.layout(c)
	if err := c.Decoded(); err != nil || int(s.n) != h.env.Config().N {
		h.env.Metrics().Inc("host.storage.bad_suspicion_state", 1)
		return false
	}
	for _, x := range s.cells {
		h.Store.RestoreCell(int(x.l), int(x.k), x.v)
	}
	if s.epoch > 1 {
		h.Store.RestoreEpoch(s.epoch)
	}
	return len(s.cells) > 0 || s.epoch > 1
}

// restoreSuspicionRecord replays one tagged suspicion WAL record.
func (h *Host) restoreSuspicionRecord(payload []byte) bool {
	if h.Store == nil {
		return false
	}
	var rec suspicionRecord
	c := wire.NewDecoder(payload)
	rec.layout(c)
	err := c.Decoded()
	switch {
	case rec.kind != susKindCell && rec.kind != susKindEpoch:
		h.env.Metrics().Inc("host.storage.unknown_records", 1)
		return false
	case err != nil:
		return false
	case rec.kind == susKindCell:
		h.Store.RestoreCell(int(rec.cell.l), int(rec.cell.k), rec.cell.v)
	default:
		h.Store.RestoreEpoch(rec.epoch)
	}
	return true
}

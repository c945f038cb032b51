// Durable state threading: the kernel owns the storage.Store, tags WAL
// records by module (suspicion matrix vs application), composes the
// two-section snapshot, and drives recovery at Init in dependency
// order — suspicion state first, then the application, then one quorum
// re-evaluation over the restored suspect graph.
package host

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"quorumselect/internal/obs/tracer"
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
	snap := appendSection(nil, l.h.encodeSuspicionState())
	snap = appendSection(snap, app)
	return l.h.storageErr("snapshot", l.h.storage.WriteSnapshot(snap))
}

// appendSection and splitSection frame the snapshot's two sections
// (suspicion state, application state) with a big-endian uint32 length.
// The framing is the host's own: the snapshot is a checksummed file it
// wrote itself, so a section is bounded only by the bytes present — not
// by wire.Reader's slice limit, which guards against untrusted network
// frames and would refuse an application section over 1 MiB.
func appendSection(dst, section []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(section)))
	return append(dst, section...)
}

func splitSection(b []byte) (section, rest []byte, ok bool) {
	if len(b) < 4 {
		return nil, nil, false
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > len(b)-4 {
		return nil, nil, false
	}
	return b[4 : 4+n], b[4+n:], true
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
	tracer.WriteCrash(fmt.Sprintf("durable %s failed: %v", op, err),
		h.env.Tracer(), h.env.Events())
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
	snapshot, records := st.Recovered()

	var appSnap []byte
	restored := false
	if snapshot != nil {
		susSnap, rest, ok1 := splitSection(snapshot)
		app, _, ok2 := splitSection(rest)
		if !ok1 || !ok2 {
			panic(fmt.Sprintf("host: corrupt snapshot framing (walIndex %d)", st.SnapshotIndex()))
		}
		appSnap = app
		if h.restoreSuspicionState(susSnap) {
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
	var b wire.Buffer
	b.PutUint8(susKindCell)
	b.PutUint32(uint32(l))
	b.PutUint32(uint32(k))
	b.PutUint64(epoch)
	_ = p.h.appendTagged(tagSuspicion, b.Bytes())
}

func (p storePersister) PersistEpoch(epoch uint64) {
	var b wire.Buffer
	b.PutUint8(susKindEpoch)
	b.PutUint64(epoch)
	_ = p.h.appendTagged(tagSuspicion, b.Bytes())
}

// encodeSuspicionState serializes the suspicion matrix and epoch as the
// kernel section of a snapshot: epoch, n, then every non-zero cell.
func (h *Host) encodeSuspicionState() []byte {
	if h.Store == nil {
		return nil
	}
	matrix := h.Store.Snapshot()
	var b wire.Buffer
	b.PutUint64(h.Store.Epoch())
	b.PutUint32(uint32(len(matrix)))
	count := 0
	for _, row := range matrix {
		for _, v := range row {
			if v != 0 {
				count++
			}
		}
	}
	b.PutUint32(uint32(count))
	for l, row := range matrix {
		for k, v := range row {
			if v != 0 {
				b.PutUint32(uint32(l))
				b.PutUint32(uint32(k))
				b.PutUint64(v)
			}
		}
	}
	return b.Bytes()
}

// restoreSuspicionState re-applies an encoded matrix section; it
// reports whether anything was restored. A section from a different
// cluster size is skipped (counted, not fatal).
func (h *Host) restoreSuspicionState(data []byte) bool {
	if h.Store == nil || len(data) == 0 {
		return false
	}
	r := wire.NewReader(data)
	epoch, err1 := r.Uint64()
	n, err2 := r.Uint32()
	count, err3 := r.Uint32()
	if err1 != nil || err2 != nil || err3 != nil {
		h.env.Metrics().Inc("host.storage.bad_suspicion_state", 1)
		return false
	}
	if int(n) != h.env.Config().N {
		h.env.Metrics().Inc("host.storage.bad_suspicion_state", 1)
		return false
	}
	restored := false
	for i := uint32(0); i < count; i++ {
		l, e1 := r.Uint32()
		k, e2 := r.Uint32()
		v, e3 := r.Uint64()
		if e1 != nil || e2 != nil || e3 != nil {
			h.env.Metrics().Inc("host.storage.bad_suspicion_state", 1)
			return restored
		}
		h.Store.RestoreCell(int(l), int(k), v)
		restored = true
	}
	if epoch > 1 {
		h.Store.RestoreEpoch(epoch)
		restored = true
	}
	return restored
}

// restoreSuspicionRecord replays one tagged suspicion WAL record.
func (h *Host) restoreSuspicionRecord(payload []byte) bool {
	if h.Store == nil {
		return false
	}
	r := wire.NewReader(payload)
	kind, err := r.Uint8()
	if err != nil {
		return false
	}
	switch kind {
	case susKindCell:
		l, e1 := r.Uint32()
		k, e2 := r.Uint32()
		v, e3 := r.Uint64()
		if e1 != nil || e2 != nil || e3 != nil {
			return false
		}
		h.Store.RestoreCell(int(l), int(k), v)
		return true
	case susKindEpoch:
		e, err := r.Uint64()
		if err != nil {
			return false
		}
		h.Store.RestoreEpoch(e)
		return true
	default:
		h.env.Metrics().Inc("host.storage.unknown_records", 1)
		return false
	}
}

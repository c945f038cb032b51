// Package storage is the durable-state subsystem: a segmented,
// CRC32C-framed append-only write-ahead log with group commit, atomic
// snapshot files (write-temp + rename), and a recovery path that loads
// the newest valid snapshot and replays the WAL tail, truncating any
// torn final record.
//
// The package is deliberately a leaf: it knows nothing about protocols
// or the replica host. Callers append opaque records; what a record
// means (an accepted PREPARE, a suspicion-matrix cell, …) is the
// caller's business. Durability is factored behind the Backend
// interface so the same Store runs against a real directory
// (DirBackend, used by cmd/xpaxos -data-dir) or an in-memory
// crash-simulating backend (MemBackend, used by the simulator and the
// chaos harness to model kill -9 + restart deterministically).
//
// Group commit mirrors the host.Ingress flush design: appends
// accumulate and a single fsync covers the batch, forced synchronously
// once SyncEvery records are pending or by a MaxSyncDelay timer,
// whichever comes first. Callers with a persist-before-act obligation
// (e.g. XPaxos syncing a view-change vote before counting it) call
// Sync explicitly.
package storage

import (
	"errors"
	"time"
)

// Backend is the minimal filesystem surface the Store needs. Names are
// flat (no directories). Create truncates; the Store never appends to
// a file it did not create in this incarnation, so no append-open
// primitive is needed.
type Backend interface {
	// List returns the names of all files in the backend.
	List() ([]string, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// Create creates (or truncates) name for writing.
	Create(name string) (File, error)
	// Rename atomically replaces newName with oldName's content.
	Rename(oldName, newName string) error
	// Remove deletes name.
	Remove(name string) error
}

// File is an open, append-only file handle. Write buffers; Sync makes
// everything written so far durable across a crash.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Timer matches runtime.Timer structurally so the Store can arm its
// group-commit flush timer on a process event loop without importing
// the runtime package.
type Timer interface {
	Stop() bool
}

// Metrics is the slice of the metrics registry the Store uses,
// satisfied by *metrics.Registry.
type Metrics interface {
	Inc(name string, delta int64)
	Observe(name string, v float64)
}

var (
	// ErrClosed is returned by operations on a closed Store.
	ErrClosed = errors.New("storage: store closed")
	// ErrCrashed is returned by writes through handles that were open
	// when a MemBackend crash was injected.
	ErrCrashed = errors.New("storage: backend crashed")
	// ErrEmptyRecord rejects zero-length records: a zero length field
	// is the torn-write sentinel during replay, so it cannot also be a
	// valid record.
	ErrEmptyRecord = errors.New("storage: empty record")
	// ErrRecordTooLarge rejects records above maxRecordLen.
	ErrRecordTooLarge = errors.New("storage: record exceeds max length")
)

// Options configure a Store. The zero value gets sane defaults from
// withDefaults.
type Options struct {
	// SegmentSize is the byte threshold at which the WAL rotates to a
	// new segment file. Default 1 MiB.
	SegmentSize int
	// SyncEvery forces a synchronous fsync once this many appended
	// records are pending. Default 32.
	SyncEvery int
	// MaxSyncDelay bounds how long an appended record may sit without
	// an fsync when traffic is too light to fill a batch; the timer
	// fires on the owning event loop via After. Default 2ms. Ignored
	// when After is nil.
	MaxSyncDelay time.Duration
	// After schedules the group-commit flush timer (wire it to
	// runtime.Env.After). Nil disables the timer: durability then
	// relies on SyncEvery and explicit Sync calls.
	After func(d time.Duration, fn func()) Timer
	// Metrics receives storage.* counters and histograms. May be nil.
	Metrics Metrics
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 1 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 32
	}
	if o.MaxSyncDelay <= 0 {
		o.MaxSyncDelay = 2 * time.Millisecond
	}
	return o
}

package storage

import (
	"fmt"
	"io/fs"
	"sort"
	"sync"
)

// MemBackend is an in-memory Backend that models crash semantics: each
// file tracks a written watermark (what the process has written) and a
// durable watermark (what an fsync has committed). Crash discards
// every unsynced byte and invalidates handles that were open at crash
// time — exactly kill -9 — while fresh Creates afterwards succeed,
// modeling the restarted process reopening its data directory. The
// simulator and chaos harness give each replica its own MemBackend so
// crash-recovery schedules stay fully deterministic. Two opt-in
// weakenings tighten the model further: SetSkipSync (fsyncs that lie)
// and SetVolatileMetadata (creates/renames/removes that a crash rolls
// back, matching DirBackend's best-effort directory fsyncs).
type MemBackend struct {
	mu       sync.Mutex
	files    map[string]*memFileData
	gen      uint64
	skipSync bool

	// volatileMeta models the weaker metadata-durability of a real
	// filesystem: while enabled, Create/Rename/Remove push an undo onto
	// metaUndo and Crash rolls the whole pending batch back (newest
	// first), as if the directory's metadata journal tail was lost in
	// the power cut. See SetVolatileMetadata.
	volatileMeta bool
	metaUndo     []func()

	// children are the live sub-trees carved out with Sub; Crash
	// cascades into them (all shards of a process share its power cut).
	children map[string]*MemBackend
}

type memFileData struct {
	data    []byte
	durable int
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{files: make(map[string]*memFileData)}
}

// Crash simulates a power cut: unsynced bytes vanish and every handle
// open at crash time goes dead (its Write and Sync return ErrCrashed).
// The backend itself stays usable, so a subsequent Store.Open recovers
// from the durable state like a restarted process would.
func (b *MemBackend) Crash() {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Pending metadata first (newest first), so restored files are then
	// subject to the data truncation below like everything else.
	for i := len(b.metaUndo) - 1; i >= 0; i-- {
		b.metaUndo[i]()
	}
	b.metaUndo = nil
	for _, f := range b.files {
		f.data = f.data[:f.durable]
	}
	b.gen++
	for _, child := range b.children {
		child.Crash()
	}
}

// SetSkipSync is a test-only tamper hook: while enabled, Sync reports
// success without advancing the durable watermark, so a later Crash
// silently loses acknowledged writes. The chaos harness uses it to
// prove the recovery checkers catch a broken fsync path.
func (b *MemBackend) SetSkipSync(v bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.skipSync = v
}

// SetVolatileMetadata toggles the metadata crash window. By default
// Create/Rename/Remove are instantly durable — a stronger model than
// DirBackend, whose post-op directory fsyncs are best-effort. With
// volatile metadata enabled, those operations take effect immediately
// but are rolled back as a unit by Crash (reverse order, modeling an
// ordered metadata journal losing its un-flushed tail), so tests can
// exercise lost-rename/lost-create schedules: a snapshot whose rename
// never became durable, a created segment whose directory entry
// vanished. Disabling the mode commits every pending operation.
func (b *MemBackend) SetVolatileMetadata(v bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.volatileMeta = v
	if !v {
		b.metaUndo = nil
	}
}

// List implements Backend.
func (b *MemBackend) List() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.files))
	for name := range b.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ReadFile implements Backend.
func (b *MemBackend) ReadFile(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, ok := b.files[name]
	if !ok {
		return nil, fmt.Errorf("storage: read %s: %w", name, fs.ErrNotExist)
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

// Create implements Backend.
func (b *MemBackend) Create(name string) (File, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.volatileMeta {
		prev, existed := b.files[name]
		b.metaUndo = append(b.metaUndo, func() {
			if existed {
				b.files[name] = prev
			} else {
				delete(b.files, name)
			}
		})
	}
	b.files[name] = &memFileData{}
	return &memHandle{b: b, name: name, gen: b.gen}, nil
}

// Rename implements Backend.
func (b *MemBackend) Rename(oldName, newName string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, ok := b.files[oldName]
	if !ok {
		return fmt.Errorf("storage: rename %s: %w", oldName, fs.ErrNotExist)
	}
	if b.volatileMeta {
		prevNew, newExisted := b.files[newName]
		b.metaUndo = append(b.metaUndo, func() {
			b.files[oldName] = f
			if newExisted {
				b.files[newName] = prevNew
			} else {
				delete(b.files, newName)
			}
		})
	}
	b.files[newName] = f
	delete(b.files, oldName)
	return nil
}

// Remove implements Backend.
func (b *MemBackend) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, ok := b.files[name]
	if !ok {
		return fmt.Errorf("storage: remove %s: %w", name, fs.ErrNotExist)
	}
	if b.volatileMeta {
		b.metaUndo = append(b.metaUndo, func() { b.files[name] = f })
	}
	delete(b.files, name)
	return nil
}

type memHandle struct {
	b      *MemBackend
	name   string
	gen    uint64
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if h.gen != h.b.gen {
		return 0, ErrCrashed
	}
	f, ok := h.b.files[h.name]
	if !ok {
		return 0, fmt.Errorf("storage: write %s: %w", h.name, fs.ErrNotExist)
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	if h.gen != h.b.gen {
		return ErrCrashed
	}
	if h.b.skipSync {
		return nil // the lie: durable watermark not advanced
	}
	if f, ok := h.b.files[h.name]; ok {
		f.durable = len(f.data)
	}
	return nil
}

func (h *memHandle) Close() error {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	h.closed = true
	return nil
}

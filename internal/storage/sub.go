package storage

import (
	"fmt"
	"path/filepath"
	"strings"
)

// Subber is implemented by backends that can carve an isolated named
// sub-tree out of themselves: one physical data directory hosting many
// independent Stores, each blind to the others' files. The fleet uses
// it to give every shard its own WAL and snapshots under a single
// -data-dir root. Sub is idempotent: the same name always yields the
// same sub-tree (a DirBackend subdirectory, a MemBackend child), so a
// restarted process reopening Sub(name) recovers that shard's state.
type Subber interface {
	Sub(name string) (Backend, error)
}

// Sub carves the named sub-tree out of parent, failing when the
// backend has no sub-tree support.
func Sub(parent Backend, name string) (Backend, error) {
	s, ok := parent.(Subber)
	if !ok {
		return nil, fmt.Errorf("storage: backend %T does not support sub-trees", parent)
	}
	return s.Sub(name)
}

// subName rejects sub-tree names that could escape the parent or
// collide with its flat files: empty, path-structured, or dot names.
func subName(name string) error {
	if name == "" || name != filepath.Base(name) || strings.ContainsAny(name, "/\\") ||
		name == "." || name == ".." {
		return fmt.Errorf("storage: invalid sub-tree name %q", name)
	}
	return nil
}

var _ Subber = (*DirBackend)(nil)

// Sub implements Subber: a DirBackend over the name subdirectory,
// created if needed. Flat files and sub-trees never collide — List
// skips directories and the flat-name validation rejects separators.
func (b *DirBackend) Sub(name string) (Backend, error) {
	if err := subName(name); err != nil {
		return nil, err
	}
	return NewDirBackend(filepath.Join(b.dir, name))
}

var _ Subber = (*MemBackend)(nil)

// Sub implements Subber: an in-memory child backend tracked by the
// parent, so the parent's Crash cascades into every sub-tree — one
// process's power cut takes all of its shards' unsynced state at once,
// like a real machine. A new child inherits the parent's tamper hooks
// (SetSkipSync, SetVolatileMetadata). Repeated Sub(name) returns the
// same child.
func (b *MemBackend) Sub(name string) (Backend, error) {
	if err := subName(name); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.children == nil {
		b.children = make(map[string]*MemBackend)
	}
	child, ok := b.children[name]
	if !ok {
		child = NewMemBackend()
		child.skipSync, child.volatileMeta = b.skipSync, b.volatileMeta
		b.children[name] = child
	}
	return child, nil
}

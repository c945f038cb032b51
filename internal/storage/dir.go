package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// DirBackend stores files in one flat OS directory. It is the real
// deployment backend behind cmd/xpaxos -data-dir. Directory fsyncs
// after Create/Rename/Remove are best-effort: they matter for
// crash-atomicity of the rename-based snapshot commit but some
// platforms reject fsync on directories, and a failure there never
// loses WAL bytes (those are covered by file fsyncs). This weaker
// metadata-durability model — a crash may undo recent creates, renames,
// and removes — is what MemBackend's SetVolatileMetadata simulates
// (rolling the pending batch back in reverse, i.e. an ordered metadata
// journal losing its tail); TestSnapshotCommitSurvivesVolatileMetadata
// pins down that the snapshot commit stays atomic under it. What
// neither backend models is a filesystem that *reorders* metadata
// across a crash (e.g. the segment unlinks surviving while the earlier
// snapshot rename is lost); mount data-journaling filesystems
// accordingly.
type DirBackend struct {
	dir string
}

// NewDirBackend creates dir if needed and returns a backend over it.
func NewDirBackend(dir string) (*DirBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirBackend{dir: dir}, nil
}

func (b *DirBackend) path(name string) (string, error) {
	if name == "" || name != filepath.Base(name) || strings.ContainsAny(name, "/\\") {
		return "", fmt.Errorf("storage: invalid file name %q", name)
	}
	return filepath.Join(b.dir, name), nil
}

// List implements Backend.
func (b *DirBackend) List() ([]string, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// ReadFile implements Backend.
func (b *DirBackend) ReadFile(name string) ([]byte, error) {
	p, err := b.path(name)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// Create implements Backend.
func (b *DirBackend) Create(name string) (File, error) {
	p, err := b.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(p)
	if err != nil {
		return nil, err
	}
	b.syncDir()
	return f, nil
}

// Rename implements Backend.
func (b *DirBackend) Rename(oldName, newName string) error {
	po, err := b.path(oldName)
	if err != nil {
		return err
	}
	pn, err := b.path(newName)
	if err != nil {
		return err
	}
	if err := os.Rename(po, pn); err != nil {
		return err
	}
	b.syncDir()
	return nil
}

// Remove implements Backend.
func (b *DirBackend) Remove(name string) error {
	p, err := b.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		return err
	}
	b.syncDir()
	return nil
}

func (b *DirBackend) syncDir() {
	d, err := os.Open(b.dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

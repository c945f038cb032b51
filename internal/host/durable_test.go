package host_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"quorumselect/internal/fd"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
	"quorumselect/internal/wire"
)

// walApp is a minimal DurableApp that just keeps the log and snapshot
// it is handed.
type walApp struct {
	wal      host.AppLog
	snapshot []byte
}

func (a *walApp) Attach(runtime.Env, *fd.Detector)    {}
func (a *walApp) Deliver(ids.ProcessID, wire.Message) {}
func (a *walApp) Recover(log host.AppLog, snapshot []byte, _ [][]byte) error {
	a.wal, a.snapshot = log, snapshot
	return nil
}

// brokenDiskBackend wraps a MemBackend; once err is set, every file
// fsync fails with it — the permanent ENOSPC/EIO class a real DirBackend
// can produce, as opposed to the injected-crash errors the kernel
// tolerates.
type brokenDiskBackend struct {
	*storage.MemBackend
	err error
}

func (b *brokenDiskBackend) Create(name string) (storage.File, error) {
	f, err := b.MemBackend.Create(name)
	if err != nil {
		return nil, err
	}
	return &brokenDiskFile{File: f, b: b}, nil
}

type brokenDiskFile struct {
	storage.File
	b *brokenDiskBackend
}

func (f *brokenDiskFile) Sync() error {
	if f.b.err != nil {
		return f.b.err
	}
	return f.File.Sync()
}

// newDurableHostEnv composes one FD-only durable host (process 1) in a
// 4-process simulated network.
func newDurableHostEnv(t *testing.T, b storage.Backend) (*sim.Network, *walApp) {
	t.Helper()
	cfg := ids.MustConfig(4, 1)
	app := &walApp{}
	h := host.New(host.Options{App: app, Storage: b})
	nodes := map[ids.ProcessID]runtime.Node{1: h, 2: silent{}, 3: silent{}, 4: silent{}}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	if app.wal == nil {
		t.Fatal("DurableApp was not handed its log at Init")
	}
	return net, app
}

// TestRealPersistFailurePanics: a persist barrier that fails on a real
// backend (sticky fsync error: ENOSPC, EIO) must fail-stop the replica,
// not count a metric and keep acknowledging protocol actions with zero
// durability behind them.
func TestRealPersistFailurePanics(t *testing.T) {
	disk := &brokenDiskBackend{MemBackend: storage.NewMemBackend()}
	net, app := newDurableHostEnv(t, disk)
	defer net.Close()

	if err := app.wal.Append([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	if err := app.wal.Sync(); err != nil {
		t.Fatal(err)
	}

	disk.err = errors.New("fsync wal: no space left on device")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Sync on a failed real backend must panic (fail-stop), not report success")
		}
		if !strings.Contains(r.(string), "halting") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	_ = app.wal.Append([]byte("doomed"))
	_ = app.wal.Sync()
}

// TestInjectedCrashErrorsTolerated: the two shutdown artifacts —
// ErrCrashed from a simulated power cut and ErrClosed once the host
// stopped — are returned to the caller, never escalated to a panic.
func TestInjectedCrashErrorsTolerated(t *testing.T) {
	backend := storage.NewMemBackend()
	net, app := newDurableHostEnv(t, backend)
	defer net.Close()

	if err := app.wal.Append([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	if err := app.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	backend.Crash()
	if err := app.wal.Append([]byte("post-crash")); !errors.Is(err, storage.ErrCrashed) {
		t.Fatalf("Append after injected crash = %v, want ErrCrashed", err)
	}

	net.StopProcess(1)
	if err := app.wal.Append([]byte("post-stop")); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("Append after Stop = %v, want ErrClosed", err)
	}
	if err := app.wal.Sync(); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("Sync after Stop = %v, want ErrClosed", err)
	}
}

// TestLargeSnapshotRecovers: an application section over 1 MiB (what an
// XPaxos replica writes after ~17k executed operations) must come back
// intact on restart. The host used to split the snapshot with
// wire.Reader.Bytes, whose 1 MiB slice limit is meant for network
// frames, and panicked with "corrupt snapshot framing" instead.
func TestLargeSnapshotRecovers(t *testing.T) {
	backend := storage.NewMemBackend()
	net, app := newDurableHostEnv(t, backend)
	big := bytes.Repeat([]byte("0123456789abcdef"), (1<<20)/16+1)
	if len(big) <= 1<<20 {
		t.Fatalf("test section is %d bytes, want > 1 MiB", len(big))
	}
	if err := app.wal.Snapshot(big); err != nil {
		t.Fatal(err)
	}
	backend.Crash()
	net.Close()

	net, app = newDurableHostEnv(t, backend)
	defer net.Close()
	if !bytes.Equal(app.snapshot, big) {
		t.Fatalf("recovered %d snapshot bytes, want the %d written", len(app.snapshot), len(big))
	}
}

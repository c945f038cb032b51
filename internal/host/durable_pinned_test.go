package host_test

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
)

// quorumWalApp is a walApp the quorum-selection composition accepts.
type quorumWalApp struct{ *walApp }

func (quorumWalApp) OnQuorum(ids.Quorum) {}

// readFile returns the one file of backend whose name starts with
// prefix.
func readFile(t *testing.T, backend *storage.MemBackend, prefix string) []byte {
	t.Helper()
	names, err := backend.List()
	if err != nil {
		t.Fatal(err)
	}
	var found []byte
	for _, name := range names {
		if strings.HasPrefix(name, prefix) && !strings.HasSuffix(name, ".tmp") {
			if found != nil {
				t.Fatalf("more than one %s* file: %v", prefix, names)
			}
			if found, err = backend.ReadFile(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	if found == nil {
		t.Fatalf("no %s* file: %v", prefix, names)
	}
	return found
}

// TestSuspicionBytesPinned pins the bytes the host writes for the
// suspicion store: the cell and epoch WAL records, and the snapshot's
// two sections with a suspicion section of several non-zero cells.
// Existing data directories hold these bytes, so a change to them must
// be made on purpose. The bytes must also restore the same matrix and
// epoch.
func TestSuspicionBytesPinned(t *testing.T) {
	backend := storage.NewMemBackend()
	cfg := ids.MustConfig(4, 1)
	boot := func() (*core.Node, *walApp, *sim.Network) {
		app := &walApp{}
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		opts.App = quorumWalApp{app}
		opts.Storage = backend
		node := core.NewNode(opts)
		nodes := map[ids.ProcessID]runtime.Node{1: node, 2: silent{}, 3: silent{}, 4: silent{}}
		return node, app, sim.NewNetwork(cfg, nodes, sim.Options{})
	}
	node, app, net := boot()
	// p1 suspects p3 and p4 in epoch 1, then advances to epoch 2, which
	// re-issues both suspicions there.
	node.Store.UpdateSuspicions(ids.NewProcSet(3, 4))
	node.Store.AdvanceEpoch()
	if err := app.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	// Each WAL frame is its length and CRC, then the host's tag (1:
	// suspicion) and the record: kind 1 (cell) with row, column and
	// epoch, or kind 2 (epoch) with the epoch.
	const wal = "" +
		"12000000" + "324a5286" + "01" + "01" + "00000000" + "00000002" + "0000000000000001" +
		"12000000" + "7a9c6c72" + "01" + "01" + "00000000" + "00000003" + "0000000000000001" +
		"0a000000" + "58212124" + "01" + "02" + "0000000000000002" +
		"12000000" + "c6b90295" + "01" + "01" + "00000000" + "00000002" + "0000000000000002" +
		"12000000" + "8e6f3c61" + "01" + "01" + "00000000" + "00000003" + "0000000000000002"
	if got := hex.EncodeToString(readFile(t, backend, "wal-")); got != wal {
		t.Errorf("suspicion WAL records\n got %s\nwant %s", got, wal)
	}

	if err := app.wal.Snapshot([]byte("app")); err != nil {
		t.Fatal(err)
	}
	// After the store's 12-byte header: the suspicion section (epoch 2,
	// n = 4, two cells of row, column and epoch), then the application
	// section, each behind its uint32 length.
	const snapshot = "00000030" + "0000000000000002" + "00000004" + "00000002" +
		"00000000" + "00000002" + "0000000000000002" +
		"00000000" + "00000003" + "0000000000000002" +
		"00000003" + "617070"
	if got := hex.EncodeToString(readFile(t, backend, "snap-")[12:]); got != snapshot {
		t.Errorf("snapshot\n got %s\nwant %s", got, snapshot)
	}

	matrix, epoch := node.Store.Snapshot(), node.Store.Epoch()
	backend.Crash()
	net.Close()
	node, app, net = boot()
	defer net.Close()
	if string(app.snapshot) != "app" {
		t.Errorf("recovered application section %q, want %q", app.snapshot, "app")
	}
	if got := node.Store.Snapshot(); !reflect.DeepEqual(got, matrix) || node.Store.Epoch() != epoch {
		t.Errorf("recovered matrix %v in epoch %d, want %v in epoch %d", got, node.Store.Epoch(), matrix, epoch)
	}
}

// TestSuspicionRecordSyncedWithinDelay: an application Append arms no
// timer (the application syncs each record itself), while a suspicion
// record, appended without a sync, is durable once MaxSyncDelay has
// passed, because the host arms the group commit for it. A power cut
// before then loses it: a monotone write the matrix re-merges from
// peers.
func TestSuspicionRecordSyncedWithinDelay(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	boot := func(backend *storage.MemBackend) (*core.Node, *walApp, *sim.Network) {
		app := &walApp{}
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		opts.App = quorumWalApp{app}
		opts.Storage = backend
		node := core.NewNode(opts)
		nodes := map[ids.ProcessID]runtime.Node{1: node, 2: silent{}, 3: silent{}, 4: silent{}}
		return node, app, sim.NewNetwork(cfg, nodes, sim.Options{})
	}
	for _, wait := range []time.Duration{host.MaxSyncDelay - 1, host.MaxSyncDelay} {
		backend := storage.NewMemBackend()
		node, app, net := boot(backend)
		queued := net.Pending()
		if err := app.wal.Append([]byte("app")); err != nil {
			t.Fatal(err)
		}
		if net.Pending() != queued {
			t.Errorf("an application Append scheduled %d events, want none", net.Pending()-queued)
		}
		if err := app.wal.Sync(); err != nil {
			t.Fatal(err)
		}
		node.Store.UpdateSuspicions(ids.NewProcSet(3))
		net.Run(net.Now() + wait)
		backend.Crash()
		net.Close()
		node, _, net = boot(backend)
		kept := node.Store.Snapshot()[0][2] != 0 // p1 suspects p3
		net.Close()
		if want := wait >= host.MaxSyncDelay; kept != want {
			t.Errorf("power cut %s after a suspicion record: recovered it %v, want %v", wait, kept, want)
		}
	}
}

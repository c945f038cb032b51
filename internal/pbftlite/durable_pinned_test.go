package pbftlite_test

import (
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/pbftlite"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
)

// TestCommittedRecordBytesPinned pins the WAL frame of the committed
// slot record a replica syncs before it executes the slot. Existing
// data directories hold these bytes, so a change to them must be made
// on purpose. The record must also replay into the same execution.
func TestCommittedRecordBytesPinned(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	backend := storage.NewMemBackend()
	boot := func(p ids.ProcessID) (runtime.Node, *pbftlite.Replica) {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		if p == 2 {
			opts.Storage = backend
		}
		return pbftlite.NewQSNode(pbftlite.Options{}, opts)
	}
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	replicas := make(map[ids.ProcessID]*pbftlite.Replica, cfg.N)
	for _, p := range cfg.All() {
		nodes[p], replicas[p] = boot(p)
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	defer net.Close()
	replicas[1].Submit(req(9, 1, "set x 1"))
	if !net.RunUntil(func() bool { return replicas[2].LastExecuted() >= 1 }, 10*time.Second) {
		t.Fatal("slot 1 did not execute")
	}

	names, err := backend.List()
	if err != nil {
		t.Fatal(err)
	}
	var wal []byte
	for _, name := range names {
		if strings.HasPrefix(name, "wal-") {
			if wal, err = backend.ReadFile(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The frame's length and CRC, the host's application tag (2), then
	// the record: slot 1 and the deciding REQUEST (9, 1, "set x 1") as a
	// length-prefixed frame.
	const want = "29000000" + "67ef781d" + "02" + "0000000000000001" +
		"0000001c" + "04" + "0000000000000009" + "0000000000000001" + "00000007" + "73657420782031"
	if got := hex.EncodeToString(wal); got != want {
		t.Errorf("committed record frame\n got %s\nwant %s", got, want)
	}

	backend.Crash()
	net.StopProcess(2)
	node2, rep2 := boot(2)
	net.ReplaceProcess(2, node2)
	if rep2.LastExecuted() != 1 {
		t.Errorf("recovered to slot %d, want 1", rep2.LastExecuted())
	}
}

package xpaxos_test

import (
	"encoding/hex"
	"testing"
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
	"quorumselect/internal/xpaxos"
)

// TestViewRecordBytesPinned pins the WAL frame of the view record
// (kind 1) a replica syncs before it sends its VIEW-CHANGE, in the run
// of TestWALRecordBytesPinned: p3 is down and p1 moves to view 1.
func TestViewRecordBytesPinned(t *testing.T) {
	rec := &frameRecorder{MemBackend: storage.NewMemBackend()}
	opts := quietNodeOpts()
	opts.Storage = rec
	p1, r1 := xpaxos.NewQSNode(xpaxos.Options{}, opts)
	fx := newQSFixture(t, 4, 1, quietNodeOpts(), sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)},
		ids.NewProcSet(3), map[ids.ProcessID]runtime.Node{1: p1})
	defer fx.net.Close()
	r1.Submit(req(9, 1, "set x 1"))
	if !fx.net.RunUntil(func() bool { return r1.LastExecuted() >= 1 }, 10*time.Second) {
		t.Fatal("slot 1 did not execute")
	}
	// The frame's length and CRC, the host's application tag (2), then
	// the record: kind 1 and view 1.
	const want = "0a000000" + "9b24c876" + "02" + "01" + "0000000000000001"
	for _, f := range rec.frames {
		if len(f) > 9 && f[8] == 2 && f[9] == 1 {
			if got := hex.EncodeToString(f); got != want {
				t.Errorf("view record frame\n got %s\nwant %s", got, want)
			}
			return
		}
	}
	t.Error("no view record written")
}

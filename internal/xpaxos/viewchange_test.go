package xpaxos

import (
	"bytes"
	"testing"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/quorum"
	"quorumselect/internal/wire"
)

// TestStableCheckpointChecksSnapshotDigest: a faulty voter that sends
// the winning (slot, digest) pair with other snapshot bytes never has
// its bytes chosen, whichever vote the choice meets first.
func TestStableCheckpointChecksSnapshotDigest(t *testing.T) {
	r := &Replica{cfg: ids.MustConfig(4, 1)}
	honest := []byte("checkpoint at slot 8")
	vote := func(p ids.ProcessID, snapshot []byte) *wire.ViewChange {
		return &wire.ViewChange{Replica: p, NewViewNum: 1, CheckpointSlot: 8,
			CheckpointDig: crypto.Digest(honest), Snapshot: snapshot}
	}
	votes := map[ids.ProcessID]*wire.ViewChange{
		1: vote(1, honest),
		2: vote(2, honest),
		3: vote(3, []byte("tampered")),
	}
	// Map iteration order varies from one call to the next.
	for range 100 {
		slot, snap := r.stableCheckpoint(votes)
		if slot != 8 || !bytes.Equal(snap, honest) {
			t.Fatalf("stable checkpoint %d with snapshot %q, want 8 with %q", slot, snap, honest)
		}
	}
}

// TestThresholdEnumeration: a threshold system's views walk every
// size-q subset in lexicographic order, and one with more than
// quorum.MaxThresholdQuorums of them is refused at Attach.
func TestThresholdEnumeration(t *testing.T) {
	cfg := ids.MustConfig(7, 2)
	got := enumerationFor(quorum.FromConfig(cfg))
	want := ids.EnumerateQuorums(cfg.N, cfg.Q())
	if len(got) != len(want) {
		t.Fatalf("%d quorums enumerated, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("view %d maps to %s, want %s", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a threshold system of C(23, 13) quorums was enumerated")
		}
	}()
	enumerationFor(quorum.FromConfig(ids.MustConfig(23, 10)))
}

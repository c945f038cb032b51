package xpaxos

import (
	"encoding/hex"
	"testing"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
)

// FuzzDurableRestore feeds arbitrary bytes to every XPaxos restore of
// local durable bytes — the checkpoint restore, the durable-snapshot
// restore, WAL record replay and KVMachine.Restore — which must reject
// what they cannot decode, never panic. The seeds are the bytes
// TestSnapshotBytesPinned, TestWALRecordBytesPinned and
// TestViewRecordBytesPinned pin. The host package has the target of the
// same name for the suspicion restores.
//
//	go test -fuzz=FuzzDurableRestore ./internal/xpaxos
func FuzzDurableRestore(f *testing.F) {
	const (
		kv = "00000002" + "00000001" + "61" + "00000002" + "3133" + "00000001" + "62" + "00000001" + "32"
		// The checkpoint blob: the client table, then the KV snapshot.
		blob = "00000002" + "0000000000000007" + "0000000000000002" + "0000000000000009" + "0000000000000002" +
			"00000019" + kv
		history = "00000002" +
			"0000000000000001000000000000000700000000000000010000000773657420612031000000024f4b" +
			"000000000000000400000000000000090000000000000002000000056765742061000000023133"
		prepare = "0000003c" + "05" + "05" + "00000001" + "0000000000000000" + "0000000000000001" +
			"0000000000000009" + "0000000000000001" + "00000007" + "73657420782031" + "00000000" +
			"00000001" + "00" + "0000"
		vote = "0000006c" + "08" + "08" + "00000001" + "0000000000000001" + "0000000000000000" +
			"00000000" + "00000000" + "00000001" + "0000000000000001" +
			"05" + "00000001" + "0000000000000000" + "0000000000000001" + "0000000000000009" + "0000000000000001" +
			"00000007" + "73657420782031" + "00000000" + "00000001" + "00" + "0000" +
			"00000001" + "00" + "0000"
	)
	for _, seed := range []string{
		kv,
		blob,
		"0000000000000000" + "0000000000000001" + "0000000000000004" + "00000041" + blob + history, // durable snapshot
		"01" + "0000000000000001", // view record
		"02" + prepare,            // accepted
		"03" + prepare,            // committed
		"04" + vote,               // view-change vote
	} {
		b, err := hex.DecodeString(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	cfg := ids.MustConfig(4, 1)
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	var live *Replica
	for _, p := range cfg.All() {
		opts := core.DefaultNodeOptions()
		opts.HeartbeatPeriod = 0
		nodes[p], live = NewQSNode(Options{}, opts)
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	f.Cleanup(func() { net.Close() })
	fresh := func() *Replica {
		r := newReplica(Options{CheckpointInterval: 4}, nil)
		r.Attach(live.env, live.detector)
		return r
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = fresh().ledger.restore(4, data)
		_ = fresh().Recover(nil, data, nil)
		_ = fresh().Recover(nil, nil, [][]byte{data})
		_ = NewKVMachine().Restore(data)
	})
}

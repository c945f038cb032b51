package host_test

import (
	"encoding/hex"
	"testing"

	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
)

// FuzzDurableRestore feeds arbitrary bytes to the host's restores of
// local durable bytes — a snapshot's suspicion section and a suspicion
// WAL record — which must skip what they cannot decode, never panic.
// The seeds are the bytes TestSuspicionBytesPinned pins. The xpaxos
// package has the target of the same name for its own records.
//
//	go test -fuzz=FuzzDurableRestore ./internal/host
func FuzzDurableRestore(f *testing.F) {
	for _, seed := range []string{
		"01" + "00000000" + "00000002" + "0000000000000001", // cell record
		"02" + "0000000000000002",                           // epoch record
		"0000000000000002" + "00000004" + "00000002" + // suspicion section
			"00000000" + "00000002" + "0000000000000002" +
			"00000000" + "00000003" + "0000000000000002",
	} {
		b, err := hex.DecodeString(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	node := core.NewNode(opts)
	nodes := map[ids.ProcessID]runtime.Node{1: node, 2: silent{}, 3: silent{}, 4: silent{}}
	net := sim.NewNetwork(ids.MustConfig(4, 1), nodes, sim.Options{})
	f.Cleanup(func() { net.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		node.Host.RestoreSuspicionState(data)
		node.Host.RestoreSuspicionRecord(data)
	})
}

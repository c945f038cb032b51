package experiments

import (
	"fmt"
	"time"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
	"quorumselect/internal/tendermint"
	"quorumselect/internal/wire"
)

// E11Tendermint exercises the paper's §X future-work direction —
// integrating Quorum Selection into a different BFT algorithm — on the
// Tendermint-style proposer-rotation engine: fault-free throughput
// shape, recovery from a crashed proposer (round rotation + selection),
// and recovery from a crashed voter (selection only), with message
// accounting.
func E11Tendermint(requests int) Table {
	t := Table{
		ID:    "E11",
		Title: "Quorum Selection in a Tendermint-style engine (§X future work)",
		Columns: []string{
			"scenario", "decided", "target", "msgs/decision", "faulty excluded", "agreement",
		},
		Notes: []string{
			"extension beyond the paper: proposer rotation + expectations + selection composed",
		},
	}
	for _, sc := range []struct {
		name    string
		crashed ids.ProcessID
	}{
		{name: "fault-free"},
		{name: "crashed proposer", crashed: 2}, // proposer of height 1 round 0
		{name: "crashed voter", crashed: 3},
	} {
		decided, msgsPer, excluded, agreement := runE11(sc.crashed, requests)
		excludedStr := "n/a"
		if sc.crashed != 0 {
			excludedStr = fmt.Sprintf("%v", excluded)
		}
		t.AddRow(sc.name, decided, requests, fmt.Sprintf("%.0f", msgsPer), excludedStr, agreement)
	}
	return t
}

func runE11(crashed ids.ProcessID, requests int) (decided uint64, msgsPerDecision float64, excluded, agreement bool) {
	cfg := ids.MustConfig(4, 1)
	replicas := make(map[ids.ProcessID]*tendermint.Replica, cfg.N)
	net := cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
		if at.Proc == crashed {
			return cluster.Member{}
		}
		nodeOpts := core.DefaultNodeOptions()
		nodeOpts.HeartbeatPeriod = 20 * time.Millisecond
		node, r := tendermint.NewQSNode(tendermint.Options{}, nodeOpts)
		replicas[at.Proc] = r
		return cluster.Member{Node: node}
	}, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)}).Net
	var entry *tendermint.Replica
	for _, p := range cfg.All() {
		if r, ok := replicas[p]; ok {
			entry = r
			break
		}
	}
	for i := 1; i <= requests; i++ {
		entry.Submit(&wire.Request{Client: 1, Seq: uint64(i), Op: []byte("op")})
	}
	net.RunUntil(func() bool {
		for _, r := range replicas {
			if r.Participating() && r.LastExecuted() < uint64(requests) {
				return false
			}
		}
		return true
	}, 2*time.Minute)

	decided = entry.LastExecuted()
	m := net.Metrics()
	consensusMsgs := m.Counter("msg.sent.TM-PROPOSAL") +
		m.Counter("msg.sent.TM-PREVOTE") + m.Counter("msg.sent.TM-PRECOMMIT")
	if decided > 0 {
		msgsPerDecision = float64(consensusMsgs) / float64(decided)
	}
	excluded = true
	agreement = true
	var ref []string
	for _, r := range replicas {
		if crashed != 0 && r.Active().Contains(crashed) {
			excluded = false
		}
		var log []string
		for _, d := range r.Executions() {
			log = append(log, fmt.Sprintf("%d:%d/%d", d.Slot, d.Client, d.Seq))
		}
		if ref == nil {
			ref = log
		} else {
			limit := len(ref)
			if len(log) < limit {
				limit = len(log)
			}
			for i := 0; i < limit; i++ {
				if ref[i] != log[i] {
					agreement = false
				}
			}
		}
	}
	return decided, msgsPerDecision, excluded, agreement
}

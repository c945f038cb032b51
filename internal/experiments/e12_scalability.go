package experiments

import (
	"fmt"
	"time"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
)

// E12Scalability measures how Quorum Selection scales with the system
// size, the regime the paper positions it for ("consortium or
// permissioned blockchains", §VI-C): virtual time until all correct
// processes agree on a quorum excluding a crashed member, the UPDATE
// traffic that convergence costs (each owner's broadcast to the n−1
// others, plus one forward to the f+1 ring successors by every process
// whose matrix a row changed), and the independent-set computation's
// share of it.
func E12Scalability(sizes []int) Table {
	t := Table{
		ID:    "E12",
		Title: "Scalability of Quorum Selection with n (§VI-C consortium regime)",
		Columns: []string{
			"n", "f", "q", "converge(ms)", "UPDATE msgs", "msgs/n²", "quorum changes",
		},
		Notes: []string{
			"one crashed default-quorum member; virtual time from crash detection window start to agreement",
			"UPDATE traffic: n−1 per owner broadcast (plus its self-copy) and f+1 per changed-row forward to the ring successors (n−1 under the paper's flood)",
		},
	}
	for _, n := range sizes {
		f := (n - 1) / 3
		if f < 1 {
			continue
		}
		converge, updates, changes := runE12(n, f)
		t.AddRow(n, f, n-f,
			fmt.Sprintf("%.0f", converge.Seconds()*1000),
			updates,
			fmt.Sprintf("%.1f", float64(updates)/float64(n*n)),
			changes)
	}
	return t
}

func runE12(n, f int) (converge time.Duration, updates int64, changes int) {
	cfg := ids.MustConfig(n, f)
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 25 * time.Millisecond
	crashed := ids.ProcessID(2) // a default-quorum member
	net, coreNodes := cluster.Nodes(cfg, func(p ids.ProcessID) (*core.Node, bool) {
		if p == crashed {
			return nil, false
		}
		return core.NewNode(opts), true
	}, sim.Options{Latency: sim.ConstantLatency(2 * time.Millisecond)})
	agreedWithout := func() bool {
		q, ok := cluster.Agreed(coreNodes)
		return ok && !q.Contains(crashed)
	}
	net.RunUntil(agreedWithout, 2*time.Minute)
	converge = net.Now()
	updates = net.Metrics().Counter("msg.sent.UPDATE")
	for _, node := range coreNodes {
		if node.Selector.QuorumsIssued() > changes {
			changes = node.Selector.QuorumsIssued()
		}
	}
	return converge, updates, changes
}

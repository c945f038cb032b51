package experiments

import (
	"fmt"

	"quorumselect/internal/adversary"
	"quorumselect/internal/core"
	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
)

// E13FollowerScalability sweeps the leader-targeting adversary across
// system sizes to show the crossover the paper motivates Follower
// Selection with: Quorum Selection's worst-case churn grows
// quadratically (≈C(f+2,2)) while Follower Selection's grows linearly
// (within 3f+1 / 6f+2), so the gap widens with f.
func E13FollowerScalability(maxF int) Table {
	t := Table{
		ID:    "E13",
		Title: "Churn growth with f: Quorum Selection (Θ(f²)) vs Follower Selection (O(f))",
		Columns: []string{
			"f", "n", "QS-proposed", "C(f+2,2)", "FS-issued", "3f+1", "ratio QS/FS",
		},
		Notes: []string{
			"both under their respective worst-case adversaries (§VII-B and §IX)",
		},
	}
	for f := 1; f <= maxF; f++ {
		n := 3*f + 1
		netQ, nodesQ := newChurnNet(n, f, 1, core.NewNode)
		resQ := adversary.RunQuorumChurn(netQ, nodesQ, adversary.ChurnOptions{F: f})
		netF, nodesF := newChurnNet(n, f, 1, follower.NewNode)
		resF := adversary.RunFollowerChurn(netF, nodesF, adversary.ChurnOptions{F: f})
		qs := resQ.QuorumsIssued + 1
		fs := resF.QuorumsIssued
		ratio := "∞"
		if fs > 0 {
			ratio = fmt.Sprintf("%.1f", float64(qs)/float64(fs))
		}
		t.AddRow(f, n, qs, ids.TheoremFourBound(f), fs, ids.TheoremNineBound(f), ratio)
	}
	return t
}

package experiments

import (
	"fmt"

	"quorumselect/internal/adversary"
	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
)

// newChurnNet builds the cluster the churn adversaries play against,
// on Algorithm 1 (core.NewNode) or Algorithm 2 (follower.NewNode). It
// sends no heartbeats: the adversaries inject suspicions directly.
func newChurnNet[N runtime.Node](n, f int, seed int64, newNode func(core.NodeOptions) N) (*sim.Network, map[ids.ProcessID]N) {
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	return cluster.Nodes(ids.MustConfig(n, f), func(ids.ProcessID) (N, bool) { return newNode(opts), true }, sim.Options{Seed: seed})
}

// churnPickers are the adversary heuristics E1/E2 maximize over.
var churnPickers = map[string]adversary.PairPicker{
	"lex":    adversary.PickLex,
	"revlex": adversary.PickReverseLex,
	"random": adversary.PickRandom,
}

// E1QuorumChanges reproduces §VII-A: the maximum number of quorums a
// worst-case adversary forces Algorithm 1 to issue within one epoch,
// against the proof bound f(f+1) of Theorem 3 and the C(f+2,2) the
// paper's own simulations report. "proposed" counts the initial default
// quorum, matching Theorem 4's accounting.
func E1QuorumChanges(maxF, seedsPerPicker int) Table {
	t := Table{
		ID:    "E1",
		Title: "Quorum Selection: adversarial quorum changes per epoch (Thm 3 / §VII-A)",
		Columns: []string{
			"f", "n", "max-issued/epoch", "proposed(+initial)",
			"bound f(f+1)", "sim-bound C(f+2,2)", "within-bounds",
		},
		Notes: []string{
			"max over adversary heuristics (lex, revlex, random) and seeds",
			"paper: 'simulations suggest Algorithm 1 allows at most C(f+2,2) quorums in one epoch'",
		},
	}
	for f := 1; f <= maxF; f++ {
		n := 3*f + 1
		best := 0
		for name, picker := range churnPickers {
			seeds := 1
			if name == "random" {
				seeds = seedsPerPicker
			}
			for s := 0; s < seeds; s++ {
				net, nodes := newChurnNet(n, f, int64(s), core.NewNode)
				res := adversary.RunQuorumChurn(net, nodes, adversary.ChurnOptions{
					F: f, Picker: picker, Seed: int64(s),
				})
				if res.MaxPerEpoch > best {
					best = res.MaxPerEpoch
				}
			}
		}
		withinBounds := best <= ids.TheoremThreeBound(f) && best+1 <= ids.TheoremFourBound(f)
		t.AddRow(f, n, best, best+1,
			ids.TheoremThreeBound(f), ids.TheoremFourBound(f), withinBounds)
	}
	return t
}

// E2LowerBound reproduces §VII-B / Theorem 4: the adversary's achieved
// number of proposed quorums versus the C(f+2,2) lower bound any
// deterministic algorithm must admit. The achieved value should track
// the bound closely (the bound is tight for Algorithm 1 up to the pairs
// the shrinking quorum makes unusable).
func E2LowerBound(maxF int) Table {
	t := Table{
		ID:    "E2",
		Title: "Lower bound (Thm 4): adversary-forced quorum proposals vs C(f+2,2)",
		Columns: []string{
			"f", "n", "injections", "proposed(+initial)", "C(f+2,2)", "achieved/bound",
		},
		Notes: []string{
			"adversary per the Thm 4 proof: all suspicions inside F⁺², victim pair reserved",
		},
	}
	for f := 1; f <= maxF; f++ {
		n := 3*f + 1
		bestProposed, bestInj := 0, 0
		for s := int64(0); s < 6; s++ {
			net, nodes := newChurnNet(n, f, s, core.NewNode)
			res := adversary.RunQuorumChurn(net, nodes, adversary.ChurnOptions{
				F: f, Picker: adversary.PickRandom, Seed: s,
			})
			if res.QuorumsIssued+1 > bestProposed {
				bestProposed = res.QuorumsIssued + 1
				bestInj = res.Injections
			}
		}
		bound := ids.TheoremFourBound(f)
		t.AddRow(f, n, bestInj, bestProposed, bound,
			fmt.Sprintf("%.2f", float64(bestProposed)/float64(bound)))
	}
	return t
}

// E3FollowerBound reproduces §IX: the leader-targeting adversary's
// churn against Follower Selection versus the 3f+1 per-epoch bound
// (Theorem 9) and the 6f+2 total bound (Corollary 10), alongside the
// Θ(f²) churn Quorum Selection admits at the same f — the paper's
// motivation for Follower Selection.
func E3FollowerBound(maxF int) Table {
	t := Table{
		ID:    "E3",
		Title: "Follower Selection: O(f) churn (Thm 9, Cor 10) vs Quorum Selection's Θ(f²)",
		Columns: []string{
			"f", "n", "FS-issued", "FS-max/epoch", "bound 3f+1", "bound 6f+2",
			"QS-issued", "within-bounds",
		},
	}
	for f := 1; f <= maxF; f++ {
		n := 3*f + 1
		netF, nodesF := newChurnNet(n, f, 1, follower.NewNode)
		resF := adversary.RunFollowerChurn(netF, nodesF, adversary.ChurnOptions{F: f})
		netQ, nodesQ := newChurnNet(n, f, 1, core.NewNode)
		resQ := adversary.RunQuorumChurn(netQ, nodesQ, adversary.ChurnOptions{F: f})
		within := resF.MaxPerEpoch <= ids.TheoremNineBound(f) &&
			resF.QuorumsIssued <= ids.CorollaryTenBound(f)
		t.AddRow(f, n, resF.QuorumsIssued, resF.MaxPerEpoch,
			ids.TheoremNineBound(f), ids.CorollaryTenBound(f),
			resQ.QuorumsIssued, within)
	}
	return t
}

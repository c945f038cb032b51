// Package quorumselect is a from-scratch Go implementation of "Quorum
// Selection for Byzantine Fault Tolerance" (Leander Jehl, ICDCS 2019).
//
// Quorum Selection picks an active quorum of n−f well-functioning
// processes to run a BFT protocol, so omission and timing failures of
// the remaining processes never need to be masked. The library
// provides:
//
//   - A Byzantine failure detector driven by application expectations
//     (⟨EXPECT, P, i⟩ / ⟨SUSPECTED, S⟩ / ⟨DETECTED, i⟩ / ⟨CANCEL⟩, §IV-B),
//     with adaptive timeouts for eventual strong accuracy.
//   - The eventually-consistent suspicion matrix and suspect-graph
//     quorum selection of Algorithm 1 (§VI), issuing at most O(f²)
//     quorum changes against a worst-case adversary (Theorem 3) — the
//     asymptotically optimal bound (Theorem 4).
//   - Follower Selection (Algorithm 2, §VIII) for leader-centric
//     protocols with n > 3f, needing only O(f) quorum changes
//     (Theorem 9, Corollary 10).
//   - An XPaxos state-machine-replication substrate with the paper's
//     failure-detector integration (§V) and a PBFT-style baseline.
//   - A deterministic discrete-event simulator, a real TCP transport
//     (the same protocol code runs on both), an adversary toolkit, and
//     an experiment harness regenerating every bound, figure and
//     example in the paper.
//
// # Quick start
//
//	cfg := quorumselect.MustConfig(4, 1) // n = 4 processes, f = 1
//	cluster := quorumselect.NewSimulatedCluster(cfg, quorumselect.ClusterOptions{})
//	cluster.Node(1).Selector.OnSuspected(quorumselect.NewProcSet(2))
//	cluster.Run(time.Second)
//	fmt.Println(cluster.Node(3).CurrentQuorum()) // {p1,p3,p4}
//
// The package examples (go test -run Example -v .) walk through each
// subsystem with checked output; see DESIGN.md for the system inventory
// and EXPERIMENTS.md for the paper-vs-measured record.
package quorumselect

package chaos

import (
	"strings"
	"testing"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
	"quorumselect/internal/xpaxos"
)

// TestScenarioDeterministic: the generator is a pure function of its
// inputs — same seed, same schedule.
func TestScenarioDeterministic(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	for seed := int64(0); seed < 20; seed++ {
		a := GenerateScenario(cfg, seed, nil, true, 8e9)
		b := GenerateScenario(cfg, seed, nil, true, 8e9)
		if strings.Join(a.Desc, "\n") != strings.Join(b.Desc, "\n") {
			t.Fatalf("seed %d: schedules differ:\n%v\nvs\n%v", seed, a.Desc, b.Desc)
		}
		if !a.Faulty.Equal(b.Faulty) {
			t.Fatalf("seed %d: faulty sets differ: %s vs %s", seed, a.Faulty, b.Faulty)
		}
	}
}

// TestScenarioRespectsFBound: the generator never marks more than f
// processes faulty — the ground rule that makes every violation a real
// protocol bug rather than an over-strong adversary.
func TestScenarioRespectsFBound(t *testing.T) {
	cfg := ids.MustConfig(7, 2)
	for seed := int64(0); seed < 100; seed++ {
		sc := GenerateScenario(cfg, seed, nil, false, 8e9)
		if got := sc.Faulty.Len(); got > cfg.F {
			t.Fatalf("seed %d: %d faulty processes exceeds f=%d", seed, got, cfg.F)
		}
	}
}

// TestReplayDeterministic is the acceptance bar for reproducibility:
// replaying the same seed twice yields byte-identical trace dumps, for
// one group per process and for a fleet of three.
func TestReplayDeterministic(t *testing.T) {
	for _, protocol := range AllProtocols() {
		protocol := protocol
		t.Run(string(protocol), func(t *testing.T) {
			t.Parallel()
			for _, shards := range []int{1, 3} {
				cfg := Config{Protocol: protocol, Shards: shards}
				d1, v1 := Replay(cfg, 42)
				d2, v2 := Replay(cfg, 42)
				if d1 != d2 {
					t.Fatalf("shards=%d: same seed produced different dumps:\n--- first\n%s\n--- second\n%s",
						shards, tail(d1), tail(d2))
				}
				if (v1 == nil) != (v2 == nil) {
					t.Fatalf("shards=%d: same seed produced different verdicts: %v vs %v", shards, v1, v2)
				}
				if d1 == "" {
					t.Fatalf("shards=%d: replay produced an empty dump", shards)
				}
			}
		})
	}
}

// TestChaosProperty is the fuzzer run as a plain property test: a batch
// of consecutive seeds per protocol must violate no invariant on any
// shard, for one group per process and for a fleet of three.
func TestChaosProperty(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, protocol := range AllProtocols() {
		protocol := protocol
		t.Run(string(protocol), func(t *testing.T) {
			t.Parallel()
			for _, shards := range []int{1, 3} {
				res := Run(Config{Protocol: protocol, Shards: shards, Seeds: seeds, FirstSeed: 1})
				if res.Violation != nil {
					t.Fatalf("shards=%d: unexpected violation:\n%s", shards, res.Violation.Dump)
				}
				if res.Seeds != seeds {
					t.Fatalf("shards=%d: executed %d seeds, want %d", shards, res.Seeds, seeds)
				}
			}
		})
	}
}

// TestChaosBatchedProperty exercises the batched replica paths the
// plain property run (BatchSize 1) never reaches.
func TestChaosBatchedProperty(t *testing.T) {
	t.Run(string(ProtocolXPaxos), func(t *testing.T) {
		res := Run(Config{Protocol: ProtocolXPaxos, BatchSize: 8, Seeds: 3, FirstSeed: 100})
		if res.Violation != nil {
			t.Fatalf("unexpected violation:\n%s", res.Violation.Dump)
		}
	})
}

// TestChaosPipelinedReorder exercises the pipelined commit path under
// the harshest delivery schedule the simulator offers: a bounded
// in-flight window keeps several slots open at once, and per-link FIFO
// is off so COMMITs overtake PREPAREs and slots interleave arbitrarily.
// Execution must stay in slot order and agree across replicas
// regardless.
func TestChaosPipelinedReorder(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	res := Run(Config{
		Protocol:  ProtocolXPaxos,
		BatchSize: 4,
		Window:    4,
		Reorder:   true,
		Seeds:     seeds,
		FirstSeed: 300,
	})
	if res.Violation != nil {
		t.Fatalf("unexpected violation:\n%s", res.Violation.Dump)
	}
	if res.Seeds != seeds {
		t.Fatalf("executed %d seeds, want %d", res.Seeds, seeds)
	}
}

// TestInjectedAgreementBugCaught is the harness's own smoke alarm test:
// deliberately corrupt one replica's history through the test-only
// tamper hook and demand the fuzzer reports a violating seed within 200
// seeds.
func TestInjectedAgreementBugCaught(t *testing.T) {
	res := Run(Config{
		Protocol:  ProtocolXPaxos,
		Seeds:     200,
		FirstSeed: 1,
		TamperHistory: func(p ids.ProcessID, h []xpaxos.Execution) []xpaxos.Execution {
			// Replica 2 "executes" a different op in its third slot —
			// the kind of divergence a real agreement bug would cause.
			if p != 2 || len(h) < 3 {
				return h
			}
			out := append([]xpaxos.Execution(nil), h...)
			out[2].Op = []byte("set evil 1")
			return out
		},
	})
	if res.Violation == nil {
		t.Fatalf("injected agreement bug not caught in %d seeds", res.Seeds)
	}
	if res.Violation.Checker != "history-agreement" {
		t.Fatalf("caught by %q, want history-agreement: %s", res.Violation.Checker, res.Violation.Detail)
	}
	if res.Violation.Seed < 1 || res.Violation.Seed > 200 {
		t.Fatalf("violating seed %d outside campaign range", res.Violation.Seed)
	}
	if !strings.Contains(res.Violation.Dump, "violation: checker=history-agreement") {
		t.Fatalf("dump does not identify the violated checker:\n%s", tail(res.Violation.Dump))
	}
	t.Logf("injected bug caught at seed %d after %d seeds", res.Violation.Seed, res.Seeds)
}

// TestAgreementCheckerNamesQuorums splits a cluster by one suspicion
// the others have not heard of yet: the qs-agreement checker must
// report the disagreement with every checked process's quorum.
func TestAgreementCheckerNamesQuorums(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	opts := core.DefaultNodeOptions()
	opts.HeartbeatPeriod = 0
	c := cluster.New(cfg, 1, func(cluster.Site) cluster.Member {
		return cluster.Member{Node: core.NewNode(opts)}
	}, sim.Options{})
	defer c.Net.Close()
	r := &RunState{Scenario: &Scenario{}, cfg: cfg, cluster: c}
	if err := (agreementChecker{}).Check(r, PhaseFinal); err != nil {
		t.Fatalf("fresh cluster: %v", err)
	}
	r.host(1).Selection.OnSuspected(ids.NewProcSet(2)) // p1 moves at once; the UPDATE is still in flight
	err := (agreementChecker{}).Check(r, PhaseFinal)
	want := "quorum disagreement after settling: p1 has {p1,p3,p4}, p2 has {p1,p2,p3}, p3 has {p1,p2,p3}, p4 has {p1,p2,p3}"
	if err == nil || err.Error() != want {
		t.Fatalf("split cluster: got %v, want %q", err, want)
	}
}

// TestCrashRestartRecovery runs the crash-restart fault class alone
// against the durable protocols: every seed must restart its crashed
// replicas from the surviving WAL + snapshot with the acknowledged
// history intact (crash-recovery checker) and, for xpaxos, execute the
// post-fault liveness probes.
func TestCrashRestartRecovery(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for _, protocol := range []Protocol{ProtocolXPaxos, ProtocolPBFT} {
		protocol := protocol
		t.Run(string(protocol), func(t *testing.T) {
			t.Parallel()
			res := Run(Config{
				Protocol: protocol,
				Faults:   []FaultClass{FaultCrashRestart},
				Seeds:    seeds,
			})
			if res.Violation != nil {
				t.Fatalf("unexpected violation:\n%s", res.Violation.Dump)
			}
		})
	}
}

// TestSkipSyncTamperCaught is the durability smoke alarm: a storage
// backend that acknowledges fsyncs without persisting must be caught by
// the crash-recovery checker when a hard crash drops the acknowledged
// writes — and the identical untampered seed must pass, proving the
// violation comes from the tamper, not the schedule. With three shards
// the tamper must reach every shard's storage sub-tree.
func TestSkipSyncTamperCaught(t *testing.T) {
	for _, protocol := range []Protocol{ProtocolXPaxos, ProtocolPBFT} {
		protocol := protocol
		t.Run(string(protocol), func(t *testing.T) {
			t.Parallel()
			for _, shards := range []int{1, 3} {
				cfg := Config{
					Protocol:       protocol,
					Faults:         []FaultClass{FaultCrashRestart},
					Shards:         shards,
					Seeds:          60,
					TamperSkipSync: true,
				}
				res := Run(cfg)
				if res.Violation == nil {
					t.Fatalf("shards=%d: skip-fsync tamper not caught in %d seeds", shards, res.Seeds)
				}
				if res.Violation.Checker != "crash-recovery" {
					t.Fatalf("shards=%d: caught by %q, want crash-recovery: %s",
						shards, res.Violation.Checker, res.Violation.Detail)
				}
				clean := cfg
				clean.TamperSkipSync = false
				if v := RunSeed(clean, res.Violation.Seed); v != nil {
					t.Fatalf("shards=%d: seed %d fails even without the tamper: %v", shards, res.Violation.Seed, v)
				}
				t.Logf("shards=%d: tamper caught at seed %d: %s", shards, res.Violation.Seed, res.Violation.Detail)
			}
		})
	}
}

// TestViolationDumpReplays: the dump attached to a violation is exactly
// what Replay reconstructs from the seed — the reproduction workflow a
// developer follows from a CI failure.
func TestViolationDumpReplays(t *testing.T) {
	cfg := Config{
		Protocol:  ProtocolXPaxos,
		Seeds:     50,
		FirstSeed: 1,
		TamperHistory: func(p ids.ProcessID, h []xpaxos.Execution) []xpaxos.Execution {
			if p != 3 || len(h) == 0 {
				return h
			}
			out := append([]xpaxos.Execution(nil), h...)
			out[0].Result = []byte("tampered")
			return out
		},
	}
	res := Run(cfg)
	if res.Violation == nil {
		t.Fatal("expected a violation to replay")
	}
	dump, v := Replay(cfg, res.Violation.Seed)
	if v == nil {
		t.Fatalf("replay of seed %d found no violation", res.Violation.Seed)
	}
	if dump != res.Violation.Dump {
		t.Fatalf("replayed dump differs from original:\n--- original\n%s\n--- replay\n%s",
			tail(res.Violation.Dump), tail(dump))
	}
}

// TestParseHelpers covers the CLI-facing parsers.
func TestParseHelpers(t *testing.T) {
	if ps, err := ParseProtocols("all"); err != nil || len(ps) != len(AllProtocols()) {
		t.Fatalf("ParseProtocols(all) = %v, %v", ps, err)
	}
	if ps, err := ParseProtocols("xpaxos, qs"); err != nil || len(ps) != 2 || ps[0] != ProtocolXPaxos || ps[1] != ProtocolQS {
		t.Fatalf("ParseProtocols(xpaxos, qs) = %v, %v", ps, err)
	}
	if _, err := ParseProtocols("raft"); err == nil {
		t.Fatal("ParseProtocols(raft) should fail")
	}
	if fs, err := ParseFaults(""); err != nil || len(fs) != len(AllFaults()) {
		t.Fatalf("ParseFaults(\"\") = %v, %v", fs, err)
	}
	if fs, err := ParseFaults("crash,mutate"); err != nil || len(fs) != 2 {
		t.Fatalf("ParseFaults(crash,mutate) = %v, %v", fs, err)
	}
	if _, err := ParseFaults("gamma-ray"); err == nil {
		t.Fatal("ParseFaults(gamma-ray) should fail")
	}
}

// FuzzChaosSeed exposes the harness to go's native fuzzer: any seed the
// mutation engine invents must satisfy every invariant on every
// protocol (the low bits pick the protocol, so one corpus covers all
// four).
func FuzzChaosSeed(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(1))
	f.Add(int64(7))
	f.Add(int64(1 << 33))
	f.Add(int64(-5))
	f.Fuzz(func(t *testing.T, seed int64) {
		protocols := AllProtocols()
		protocol := protocols[((seed%int64(len(protocols)))+int64(len(protocols)))%int64(len(protocols))]
		if v := RunSeed(Config{Protocol: protocol}, seed); v != nil {
			t.Fatalf("seed %d violates %s on %s:\n%s", seed, v.Checker, protocol, tail(v.Dump))
		}
	})
}

// tail bounds a dump for test-failure output.
func tail(s string) string {
	const max = 4000
	if len(s) <= max {
		return s
	}
	return "..." + s[len(s)-max:]
}

package chaos

import (
	"strings"
	"testing"
)

// TestUnsafeSpecCheckerRejects is the boot-gate half of the adversary:
// both the exact checker and the seed-plumbed forced sampler must
// reject the intersection-violating spec before any node boots, so the
// scenario reports no violation.
func TestUnsafeSpecCheckerRejects(t *testing.T) {
	res := Run(Config{Preset: PresetUnsafeSpec, FirstSeed: 3, Seeds: 3})
	if res.Violation != nil {
		t.Fatalf("checker failed to reject unsafe spec:\n%s", res.Violation.Dump)
	}
	if res.Seeds != 3 {
		t.Fatalf("ran %d seeds, want 3", res.Seeds)
	}
}

// TestUnsafeSpecSafeSpecIsConfigError pins the ground-truth polarity:
// feeding the adversary a spec with intersection is a scenario
// misconfiguration, not a checker finding.
func TestUnsafeSpecSafeSpecIsConfigError(t *testing.T) {
	res := Run(Config{Preset: PresetUnsafeSpec, Spec: "threshold:n=4;f=1", FirstSeed: 1})
	if res.Violation == nil || res.Violation.Checker != "unsafe-spec-config" {
		t.Fatalf("safe spec not flagged as config error: %+v", res.Violation)
	}
}

// TestUnsafeSpecForcedForkViolates forces the unsafe spec past the
// checker and demands the demonstration: the two disjoint quorums
// certify divergent slot-1 histories across the partition, and the
// post-heal certificate crosses sides. The violation proves the spec
// the checker rejects is genuinely unsafe at the wire level.
func TestUnsafeSpecForcedForkViolates(t *testing.T) {
	res := Run(Config{Preset: PresetUnsafeSpec, Force: true, FirstSeed: 5})
	if res.Violation == nil {
		t.Fatal("forced unsafe spec did not fork the log")
	}
	if res.Violation.Checker != "history-agreement" {
		t.Fatalf("violation from %q, want history-agreement:\n%s",
			res.Violation.Checker, res.Violation.Dump)
	}
	if !strings.Contains(res.Violation.Detail, "histories diverge at slot 1") {
		t.Fatalf("violation detail %q does not pin the slot-1 fork", res.Violation.Detail)
	}
	dump := res.Violation.Dump
	for _, want := range []string{
		"seed=5",
		"mode=sampled",
		"disjoint quorums {p1,p2} | {p3,p4}",
		`spec="slices:n=4;1={2};2={1};3={4};4={3}"`,
		// Side B executed side A's slot 2: the cross-side certificate was
		// accepted.
		"shard 0: p1:2 p2:2 p3:2 p4:2",
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

// TestUnsafeSpecReplayDeterministic pins the replay contract for the
// forced run: the chaos seed feeds both the network schedule and the
// randomized intersection sampler, so two replays of one seed — checker
// verdicts included — are byte-identical.
func TestUnsafeSpecReplayDeterministic(t *testing.T) {
	cfg := Config{Preset: PresetUnsafeSpec, Force: true}
	a, va := Replay(cfg, 9)
	b, vb := Replay(cfg, 9)
	if (va == nil) != (vb == nil) {
		t.Fatalf("replays disagree on violation: %v vs %v", va, vb)
	}
	if a != b {
		t.Fatalf("replay dumps differ for one seed:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if !strings.Contains(a, "seed=9") {
		t.Fatalf("dump missing seed header:\n%s", a)
	}
	if !strings.Contains(a, "seed=9 confidence=0.99") {
		t.Fatalf("dump missing seeded sampler report:\n%s", a)
	}
}

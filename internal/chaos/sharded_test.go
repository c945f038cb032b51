package chaos

import (
	"strings"
	"testing"
)

// TestShardedPartitionScenario runs the sharded-partition scenario:
// with shard 0's leader cut off at the envelope level, every other
// shard commits its full workload during the window, every shard
// (including the healed shard 0) executes its post-heal probes, and
// the whole default suite holds on every shard.
func TestShardedPartitionScenario(t *testing.T) {
	res := Run(Config{Preset: PresetShardedPartition, FirstSeed: 7, Seeds: 2})
	if res.Violation != nil {
		t.Fatalf("sharded-partition violated:\n%s", res.Violation.Dump)
	}
	if res.Seeds != 2 {
		t.Fatalf("ran %d seeds, want 2", res.Seeds)
	}
}

// TestShardedPartitionReplayDeterministic pins the replay contract:
// two executions of the same seed produce byte-identical dumps.
func TestShardedPartitionReplayDeterministic(t *testing.T) {
	cfg := Config{Preset: PresetShardedPartition}
	a, va := Replay(cfg, 11)
	b, vb := Replay(cfg, 11)
	if (va == nil) != (vb == nil) {
		t.Fatalf("replays disagree on violation: %v vs %v", va, vb)
	}
	if a != b {
		t.Fatalf("replay dumps differ for one seed:\n--- first\n%s\n--- second\n%s", tail(a), tail(b))
	}
	for _, want := range []string{
		"chaos: protocol=xpaxos seed=11 n=4 f=1 shards=3\n",
		"shard 0 leader p1: shard-0 envelopes dropped in [1s,9s)",
		"shard 2: p1:",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("dump missing %q:\n%s", want, tail(a))
		}
	}
}

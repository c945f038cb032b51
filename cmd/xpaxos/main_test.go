package main

import (
	"testing"

	qs "quorumselect"
)

// TestDefaultQuorumSpecIsThreshold: with no -quorum-spec the gate
// returns the checked threshold system n−f, the same system a nil
// NodeOptions.Quorum selects, also on a sharded fleet.
func TestDefaultQuorumSpecIsThreshold(t *testing.T) {
	cfg := qs.MustConfig(4, 1)
	for _, shards := range []int{1, 3} {
		sys, report, err := loadQuorumSpec("", cfg, shards)
		if err != nil {
			t.Fatalf("shards=%d: default spec rejected: %v", shards, err)
		}
		if sys == nil || sys.String() != "threshold:n=4;q=3" {
			t.Fatalf("shards=%d: default system %v, want threshold:n=4;q=3", shards, sys)
		}
		if report.Err() != nil {
			t.Fatalf("shards=%d: report %s", shards, report)
		}
	}
	if _, _, err := loadQuorumSpec("weighted:w=2,2,1,1;t=4", cfg, 3); err == nil {
		t.Fatal("a generalized spec was accepted on a sharded fleet")
	}
}

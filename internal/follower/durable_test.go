package follower_test

import (
	"strings"
	"testing"

	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
)

// TestDurableNodeRejected wires each process's cluster backend into
// its node, as a crash-restart harness does. Follower Selection cannot
// recover a leader's FOLLOWERS choice after a restart, so the node must
// refuse the backend and say why rather than boot half-durable.
func TestDurableNodeRejected(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "FOLLOWERS") {
			t.Errorf("durable follower node: panic %q, want one naming the unrecoverable FOLLOWERS choice", msg)
		}
	}()
	cluster.New(ids.MustConfig(7, 2), 1, func(at cluster.Site) cluster.Member {
		opts := core.DefaultNodeOptions()
		opts.Storage = at.Backend
		return cluster.Member{Node: follower.NewNode(opts)}
	}, sim.Options{})
}

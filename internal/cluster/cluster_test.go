package cluster_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"quorumselect/internal/chaos"
	"quorumselect/internal/cluster"
	"quorumselect/internal/core"
	"quorumselect/internal/host"
	"quorumselect/internal/ids"
	"quorumselect/internal/load"
	"quorumselect/internal/sim"
	"quorumselect/internal/storage"
	"quorumselect/internal/wire"
	"quorumselect/internal/xpaxos"
)

func exec(slot, client, seq uint64, op, result string) xpaxos.Execution {
	return xpaxos.Execution{Slot: slot, Client: client, Seq: seq, Op: []byte(op), Result: []byte(result)}
}

// TestHistoriesAgree drives the checker with canned histories on silent
// members. The "different op" and "different result" cases — same
// client and sequence number but a different operation or result — are
// the ones the per-scenario copies this checker replaced did not
// compare; "request executed twice" fails the exactly-once check.
func TestHistoriesAgree(t *testing.T) {
	base := []xpaxos.Execution{
		exec(1, 7, 1, "set a 1", "OK"),
		exec(2, 7, 2, "set b 2", "OK"), exec(2, 8, 1, "set c 3", "OK"), // one batched slot
		exec(3, 7, 3, "set d 4", "OK"),
		exec(4, 8, 2, "set e 5", "OK"),
	}
	with := func(i int, e xpaxos.Execution) []xpaxos.Execution {
		h := append([]xpaxos.Execution(nil), base...)
		h[i] = e
		return h
	}
	// slot 5 re-runs slot 2's first request
	twice := append(append([]xpaxos.Execution(nil), base...), exec(5, 7, 2, "set b 2", "OK"))
	cases := []struct {
		name    string
		p2      []xpaxos.Execution
		wantErr string // "" = must agree
	}{
		{"identical", base, ""},
		{"shorter prefix", base[:3], ""},
		{"checkpoint gap skips slots 2-3", []xpaxos.Execution{base[0], base[4]}, ""},
		{"no history", nil, ""},
		{"out-of-order slot", []xpaxos.Execution{base[3], base[0]}, "out of order"},
		{"unequal batch size", []xpaxos.Execution{base[0], base[1], base[3]}, "executed 2 requests, p2 executed 1"},
		{"different client", with(3, exec(3, 9, 3, "set d 4", "OK")), "histories diverge at slot 3"},
		{"different op", with(3, exec(3, 7, 3, "set d evil", "OK")), "histories diverge at slot 3"},
		{"different result", with(4, exec(4, 8, 2, "set e 5", "ERR")), "histories diverge at slot 4"},
		{"request executed twice", twice, "p2 executed client=7 seq=2 twice (slots 2 and 5)"},
	}
	agree := func(p2 []xpaxos.Execution) error {
		hists := map[ids.ProcessID][]xpaxos.Execution{1: base, 2: p2, 3: base[:1]}
		c := cluster.New(ids.MustConfig(3, 1), 1, func(at cluster.Site) cluster.Member {
			h, ok := hists[at.Proc]
			if !ok {
				return cluster.Member{}
			}
			return cluster.Member{History: func() []xpaxos.Execution { return h }}
		}, sim.Options{})
		defer c.Net.Close()
		return c.HistoriesAgree(0)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := agree(tc.p2)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("agreeing histories rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatal("diverged histories accepted")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestHardCrashRestartRecovers: a member hard-crashed (unsynced writes
// lost) and restarted is rebuilt over its old backend, comes back
// running, and reports its pre-crash history as a prefix — per shard
// when the process is a fleet.
func TestHardCrashRestartRecovers(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := ids.MustConfig(4, 1)
			hosts := make(map[ids.ProcessID][]*host.Host)
			c := cluster.New(cfg, shards, func(at cluster.Site) cluster.Member {
				backend, err := storage.Sub(at.Backend, fmt.Sprintf("shard-%d", at.Shard))
				if err != nil {
					t.Fatal(err)
				}
				nodeOpts := core.DefaultNodeOptions()
				nodeOpts.Storage = backend
				node, rep := xpaxos.NewQSNode(xpaxos.Options{CheckpointInterval: 4}, nodeOpts)
				if at.Shard == 0 {
					hosts[at.Proc] = nil
				}
				hosts[at.Proc] = append(hosts[at.Proc], node.Host)
				return cluster.Member{Node: node, Submit: rep.Submit, History: rep.Executions, IsLeader: rep.IsLeader}
			}, sim.Options{Seed: 5, Latency: cluster.LAN})
			defer c.Net.Close()

			submit := func(from, to int) {
				for s := 0; s < shards; s++ {
					for i := from; i <= to; i++ {
						req := &wire.Request{Client: uint64(10 + s), Seq: uint64(i), Op: []byte(fmt.Sprintf("set k%d v%d", i, i))}
						if !c.Submit(s, req, ids.ProcSet{}) {
							t.Fatalf("shard %d: no member took request %d", s, i)
						}
					}
				}
			}
			executed := func(n int) func() bool {
				return func() bool {
					for s := 0; s < shards; s++ {
						if got, _ := c.Executed(s, uint64(10+s)); got < n {
							return false
						}
					}
					return true
				}
			}
			submit(1, 10)
			if !c.Net.RunUntil(executed(10), 5*time.Second) {
				t.Fatal("workload did not commit before the crash")
			}
			c.Net.Run(c.Net.Now() + 200*time.Millisecond) // let the whole quorum execute

			const victim = ids.ProcessID(2) // a default-quorum member
			pre := make([][]xpaxos.Execution, shards)
			for s := range pre {
				pre[s] = c.Member(victim, s).History()
				if len(pre[s]) == 0 {
					t.Fatalf("shard %d: victim executed nothing before the crash", s)
				}
			}
			old := hosts[victim]
			c.Crash(victim, true)
			if c.Running(victim) || old[0].State() != host.StateStopped {
				t.Fatalf("after Crash: Running=%v host=%s", c.Running(victim), old[0].State())
			}
			c.Net.Run(c.Net.Now() + time.Second)
			c.Restart(victim)
			if !c.Running(victim) {
				t.Fatal("Restart left the process down")
			}
			for s := 0; s < shards; s++ {
				h := hosts[victim][s]
				if h == old[s] {
					t.Fatalf("shard %d: Restart reused the crashed member", s)
				}
				if h.State() != host.StateRunning {
					t.Fatalf("shard %d: restarted host is %s", s, h.State())
				}
				cur := c.Member(victim, s).History()
				if len(cur) < len(pre[s]) {
					t.Fatalf("shard %d: recovered %d of %d acknowledged executions", s, len(cur), len(pre[s]))
				}
				for k, e := range pre[s] {
					if cur[k].Slot != e.Slot || cur[k].Client != e.Client || cur[k].Seq != e.Seq || string(cur[k].Op) != string(e.Op) {
						t.Fatalf("shard %d: recovered history diverges at index %d: %+v vs %+v", s, k, cur[k], e)
					}
				}
			}

			submit(11, 14)
			if !c.Net.RunUntil(executed(14), c.Net.Now()+10*time.Second) {
				t.Fatal("cluster made no progress after the restart")
			}
			for s := 0; s < shards; s++ {
				if err := c.HistoriesAgree(s); err != nil {
					t.Fatalf("shard %d: %v", s, err)
				}
			}
		})
	}
}

// TestSeededOutputsPinned pins two seeded end-to-end outputs that run
// through this harness to recorded hashes. The Replay-twice tests in
// chaos and load only compare two runs of one build; this one fails
// when a refactor changes construction order, RNG consumption or
// scheduling. Regenerate with UPDATE_GOLDEN=1 only for an intended
// behaviour change.
func TestSeededOutputsPinned(t *testing.T) {
	dump, v := chaos.Replay(chaos.Config{Protocol: chaos.ProtocolXPaxos, BatchSize: 8, Window: 4}, 7)
	if v != nil {
		t.Fatalf("pinned chaos seed violates: %v", v)
	}
	summary, err := load.RunSim(load.SimOptions{
		Arrivals: &load.Poisson{R: 400},
		Keys:     &load.UniformKeys{N: 100},
		Seed:     1,
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sumJSON, err := json.Marshal(summary)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("chaos-replay-xpaxos-seed7-batch8-window4 %x\nloadsim-poisson400-seed1-2s %x\n",
		sha256.Sum256([]byte(dump)), sha256.Sum256(sumJSON))

	goldenPath := filepath.Join("testdata", "seeded.sha256")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("seeded outputs changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

package adversary_test

import (
	"fmt"
	"testing"

	"quorumselect/internal/crypto"
	"quorumselect/internal/fleet"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

// recvPathBudget is the allocation ceiling of one TCP receive of a
// batch-8 PREPARE in a shard envelope, authentication and fleet demux
// included: the decoder's reader, the envelope, the PREPARE, its Rest
// slice, eight operations and the signature (13), plus the HMAC
// verdict's buffer.
const recvPathBudget = 14

// counting is a shard node that only counts what reaches it.
type counting struct{ n int }

func (c *counting) Init(runtime.Env)                    {}
func (c *counting) Receive(ids.ProcessID, wire.Message) { c.n++ }

// TestTCPReceivePathBudget pins the work a connection reader and the
// loop do for the shard-sat workload's dominant frame, a batch-8
// PREPARE in a ShardEnvelope under HMAC: one decode of the envelope and
// of its inner frame, zero SigBytes re-encodes (the signature is
// checked against the bytes that arrived), and no second decode when
// the fleet hands the inner message to its shard.
func TestTCPReceivePathBudget(t *testing.T) {
	if raceDetector {
		t.Skip("allocation budgets assume sync.Pool keeps what it is given")
	}
	cfg := ids.MustConfig(4, 1)
	auth := crypto.NewHMACRing(cfg, []byte("bench"))
	const shard = 2
	prep := &wire.Prepare{Leader: 1, View: 0, Slot: 4242}
	reqs := make([]wire.Request, 8)
	for i := range reqs {
		reqs[i] = wire.Request{Client: 100, Seq: uint64(i + 1), Op: []byte(fmt.Sprintf("set key-%d v%d", 1000+i, 40000+i))}
	}
	prep.Req, prep.Rest = reqs[0], reqs[1:]
	sig, err := crypto.NewDomainAuth(auth, crypto.ShardDomain(shard)).Sign(1, prep.SigBytes())
	if err != nil {
		t.Fatal(err)
	}
	prep.Sig = sig
	frame := wire.Encode(&wire.ShardEnvelope{Shard: shard, Inner: prep})

	shards := make([]*counting, 4)
	fl := fleet.New(fleet.Options{Shards: len(shards), NewShard: func(s int) runtime.Node {
		shards[s] = &counting{}
		return shards[s]
	}})
	nodes := map[ids.ProcessID]runtime.Node{1: fl, 2: &counting{}, 3: &counting{}, 4: &counting{}}
	net := sim.NewNetwork(cfg, nodes, sim.Options{Auth: auth})
	defer net.Close()

	const runs = 200
	var failed error
	recv := testing.AllocsPerRun(runs, func() {
		m, checked, err := runtime.Authenticate(auth, frame)
		if err != nil || !checked {
			failed = fmt.Errorf("authenticate: checked=%v err=%v", checked, err)
			return
		}
		fl.Receive(2, m)
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if got := shards[shard].n; got != runs+1 {
		t.Fatalf("shard %d received %d PREPAREs, want %d", shard, got, runs+1)
	}

	decode := testing.AllocsPerRun(runs, func() { wire.Decode(frame) })
	signed := prep.SigBytes()
	verify := testing.AllocsPerRun(runs, func() { crypto.VerifyShard(auth, shard, 1, signed, sig) })
	reencode := testing.AllocsPerRun(runs, func() { prep.SigBytes() })
	if reencode < 1 {
		t.Fatalf("SigBytes allocates %v: the comparison below could not see a re-encode", reencode)
	}
	t.Logf("receive path %v allocs: decode %v, check %v (a SigBytes re-encode would add %v)", recv, decode, verify, reencode)
	if recv > decode+verify {
		t.Errorf("receive path: %v allocs, one decode (%v) and one check (%v) cost %v: a second decode or a SigBytes re-encode (%v) is back",
			recv, decode, verify, decode+verify, reencode)
	}
	if recv > recvPathBudget {
		t.Errorf("receive path: %v allocs, budget %d", recv, recvPathBudget)
	}
}

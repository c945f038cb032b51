package main

import (
	"fmt"
	"runtime"
	"time"

	qs "quorumselect"
	"quorumselect/internal/crypto"
	"quorumselect/internal/graph"
	"quorumselect/internal/ids"
	"quorumselect/internal/quorum"
	iruntime "quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/suspicion"
	"quorumselect/internal/wire"
)

// timed runs fn n times and returns the mean wall time per call in ns.
func timed(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(n)
}

// preparedBatch is the commit path's dominant frame: a PREPARE carrying
// a batch of 8 set ops under an ed25519-sized signature.
func preparedBatch() *wire.Prepare {
	p := &wire.Prepare{Leader: 1, View: 0, Slot: 4242, Sig: make([]byte, 64)}
	reqs := make([]wire.Request, batchSize)
	for i := range reqs {
		reqs[i] = wire.Request{Client: 100, Seq: uint64(i + 1), Op: []byte(fmt.Sprintf("set key-%d v%d", 1000+i, 40000+i))}
	}
	p.Req, p.Rest = reqs[0], reqs[1:]
	return p
}

type silent struct{}

func (silent) Init(iruntime.Env)                   {}
func (silent) Receive(ids.ProcessID, wire.Message) {}

// callLayers times calls from here into the layers' public functions,
// on the workload's own shapes: its cluster size and its authenticator
// (certAuth; nil is the simulator's NopRing).
func callLayers(cfg qs.Config, certAuth qs.Authenticator) (map[string]float64, error) {
	out := make(map[string]float64)

	// wire
	prep := preparedBatch()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const encN = 20000
	out["wire.encode_ns"] = timed(encN, func() { wire.Encode(prep) })
	runtime.ReadMemStats(&m1)
	out["wire.encode_allocs"] = float64(m1.Mallocs-m0.Mallocs) / encN
	frame := wire.Encode(prep)
	var decodeErr error
	out["wire.decode_ns"] = timed(encN, func() {
		if _, err := wire.Decode(frame); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return nil, decodeErr
	}

	// crypto: sign and verify the PREPARE's canonical bytes.
	ed, err := qs.NewEd25519Auth(cfg)
	if err != nil {
		return nil, err
	}
	data := prep.SigBytes()
	for name, ring := range map[string]qs.Authenticator{"ed25519": ed, "hmac": qs.NewHMACAuth(cfg, []byte("bench"))} {
		sig, err := ring.Sign(1, data)
		if err != nil {
			return nil, err
		}
		var callErr error
		out["crypto.sign_us."+name] = timed(2000, func() {
			if _, err := ring.Sign(1, data); err != nil {
				callErr = err
			}
		}) / 1e3
		out["crypto.verify_us."+name] = timed(2000, func() {
			if err := ring.Verify(1, data, sig); err != nil {
				callErr = err
			}
		}) / 1e3
		if callErr != nil {
			return nil, callErr
		}
	}
	// A q-signature commit certificate: q distinct COMMIT signatures,
	// each paired with a copy of the one embedded PREPARE signature.
	if certAuth == nil {
		certAuth = crypto.NopRing{}
	}
	members := cfg.All()[:cfg.Q()]
	prepSig, err := certAuth.Sign(members[0], data)
	if err != nil {
		return nil, err
	}
	var items []crypto.BatchItem
	for _, p := range members {
		commit := []byte(fmt.Sprintf("COMMIT view=0 slot=4242 replica=%s", p))
		sig, err := certAuth.Sign(p, commit)
		if err != nil {
			return nil, err
		}
		items = append(items,
			crypto.BatchItem{Signer: p, Data: commit, Sig: sig},
			crypto.BatchItem{Signer: members[0], Data: data, Sig: prepSig})
	}
	pool := crypto.NewPool(certAuth, 0)
	var certErr error
	out["crypto.cert_verify_us"] = timed(500, func() {
		for _, err := range pool.VerifyBatch(items) {
			if err != nil {
				certErr = err
			}
		}
	}) / 1e3
	pool.Close()
	if certErr != nil {
		return nil, certErr
	}

	// suspicion: merge an UPDATE row that re-stamps one cell.
	nodes := make(map[ids.ProcessID]iruntime.Node, cfg.N)
	for _, p := range cfg.All() {
		nodes[p] = silent{}
	}
	net := sim.NewNetwork(cfg, nodes, sim.Options{})
	store := suspicion.New(cfg, suspicion.Options{Forward: false})
	store.Bind(net.Env(1), nil)
	row := make([]uint64, cfg.N)
	stamp := uint64(0)
	out["suspicion.merge_ns"] = timed(20000, func() {
		stamp++
		row[int(stamp)%cfg.N] = stamp
		store.HandleUpdate(&wire.Update{Owner: 2, Row: row, Sig: []byte{0}})
	})
	net.Close()

	// quorum: the certificate path's membership test.
	sys := quorum.FromConfig(cfg)
	isQuorum := true
	out["quorum.is_quorum_ns"] = timed(200000, func() { isQuorum = isQuorum && sys.IsQuorum(members) })
	if !isQuorum {
		return nil, fmt.Errorf("%s rejects its own default quorum", sys)
	}

	// fleet: route the workload's keys.
	router := qs.NewShardRouter(4)
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	i, sink := 0, 0
	out["fleet.route_ns"] = timed(200000, func() {
		sink += router.RouteString(keys[i%keySpace])
		i++
	})
	_ = sink
	return out, nil
}

// graphLayers times the two graph searches on a select-scale game's
// suspect graphs: the selector's independent-set search for quorum size
// q on the final one, the line-subgraph search on the sparse one.
func graphLayers(final, sparse *graph.Graph, q int) map[string]float64 {
	return map[string]float64{
		"graph.first_independent_set_us.n64": timed(200, func() { final.FirstIndependentSet(q) }) / 1e3,
		"graph.line_subgraph_us.n64":         timed(200, func() { graph.MaximalLineSubgraph(sparse) }) / 1e3,
	}
}

package crypto

import (
	"fmt"
	"sync"
	"testing"

	"quorumselect/internal/ids"
)

// certItems builds the verification batch of a quorum commit
// certificate over ring: one distinct COMMIT signature per quorum
// member plus, for each, a copy of the SAME embedded PREPARE signature
// — 2q items, q+1 distinct checks.
func certItems(tb testing.TB, cfg ids.Config, ring Authenticator) []BatchItem {
	tb.Helper()
	members := cfg.All()[:cfg.Q()]
	prepData := []byte("PREPARE view=1 slot=42 op=set k v")
	prepSig, err := ring.Sign(members[0], prepData)
	if err != nil {
		tb.Fatal(err)
	}
	items := make([]BatchItem, 0, 2*len(members))
	for _, p := range members {
		commitData := []byte(fmt.Sprintf("COMMIT view=1 slot=42 replica=%s", p))
		commitSig, err := ring.Sign(p, commitData)
		if err != nil {
			tb.Fatal(err)
		}
		items = append(items,
			BatchItem{Signer: p, Data: commitData, Sig: commitSig},
			BatchItem{Signer: members[0], Data: prepData, Sig: prepSig})
	}
	return items
}

func TestVerifySerialAligned(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	ring := NewHMACRing(cfg, []byte("vk"))
	items := certItems(t, cfg, ring)
	items[2].Sig = []byte("forged")
	errs := VerifySerial(ring, items)
	if len(errs) != len(items) {
		t.Fatalf("got %d errors for %d items", len(errs), len(items))
	}
	for i, err := range errs {
		if (i == 2) != (err != nil) {
			t.Fatalf("item %d: unexpected verdict %v", i, err)
		}
	}
}

func TestPoolVerifyBatchDedupsAndAligns(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	ring := NewHMACRing(cfg, []byte("vk"))
	pool := NewPool(ring, 2)
	defer pool.Close()

	items := certItems(t, cfg, ring)
	errs := pool.VerifyBatch(items)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("valid cert item %d rejected: %v", i, err)
		}
	}

	// A forged duplicate must fail everywhere it is aliased: corrupt the
	// shared prepare signature on every copy.
	bad := certItems(t, cfg, ring)
	for i := 1; i < len(bad); i += 2 {
		bad[i].Sig = []byte("forged")
	}
	errs = pool.VerifyBatch(bad)
	for i, err := range errs {
		odd := i%2 == 1
		if odd && err == nil {
			t.Fatalf("forged prepare copy %d accepted", i)
		}
		if !odd && err != nil {
			t.Fatalf("valid commit %d rejected: %v", i, err)
		}
	}
}

func TestPoolVerifyBatchSignerConfusion(t *testing.T) {
	// Two items with identical signature bytes but different signers (or
	// different data) must NOT share a verdict: the dedup key includes
	// both.
	cfg := ids.MustConfig(4, 1)
	ring := NewHMACRing(cfg, []byte("vk"))
	pool := NewPool(ring, 1)
	defer pool.Close()
	data := []byte("payload")
	sig, err := ring.Sign(1, data)
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Signer: 1, Data: data, Sig: sig},
		{Signer: 2, Data: data, Sig: sig},                 // same sig, wrong signer
		{Signer: 1, Data: []byte("other data"), Sig: sig}, // same sig, wrong data
	}
	errs := pool.VerifyBatch(items)
	if errs[0] != nil {
		t.Fatalf("genuine item rejected: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("signature accepted for the wrong signer")
	}
	if errs[2] == nil {
		t.Fatal("signature accepted over the wrong data")
	}
}

// TestPoolRaceStorm hammers one pool from many goroutines with batched
// passes, one of them forged, across a mid-storm Close — the -race
// harness for the fan-out, and proof that every caller gets its own
// aligned verdicts.
func TestPoolRaceStorm(t *testing.T) {
	cfg := ids.MustConfig(7, 2)
	ring := NewHMACRing(cfg, []byte("storm"))
	pool := NewPool(ring, 4)
	items := certItems(t, cfg, ring)
	forged := certItems(t, cfg, ring)
	forged[0].Sig = []byte("forged")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		batch := items
		if g%2 == 1 {
			batch = forged
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for k, err := range pool.VerifyBatch(batch) {
					if bad := &batch[k] == &forged[0]; bad != (err != nil) {
						t.Errorf("item %d: verdict %v", k, err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool.Close()
	}()
	wg.Wait()
	pool.Close()
}

// TestVerifyShardMatchesDomainAuth: checking a frame under the shard
// number it carries is the check the shard's own DomainAuth makes —
// its signatures pass, and another shard's do not.
func TestVerifyShardMatchesDomainAuth(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	for name, ring := range map[string]Authenticator{"hmac": NewHMACRing(cfg, []byte("vk")), "ed25519": mustEd25519(t, cfg)} {
		t.Run(name, func(t *testing.T) {
			data := []byte("PREPARE view=0 slot=7")
			for _, shard := range []uint32{0, 3, 12} {
				auth := NewDomainAuth(ring, ShardDomain(int(shard)))
				sig, err := auth.Sign(2, data)
				if err != nil {
					t.Fatal(err)
				}
				if err := auth.Verify(2, data, sig); err != nil {
					t.Fatalf("shard %d: DomainAuth rejects its own signature: %v", shard, err)
				}
				if err := VerifyShard(ring, shard, 2, data, sig); err != nil {
					t.Fatalf("shard %d: VerifyShard rejects the shard's signature: %v", shard, err)
				}
				if err := VerifyShard(ring, shard+1, 2, data, sig); err == nil {
					t.Fatalf("shard %d's signature verifies under shard %d", shard, shard+1)
				}
				if err := ring.Verify(2, data, sig); err == nil {
					t.Fatalf("shard %d's signature verifies outside any domain", shard)
				}
			}
		})
	}
	if got := ShardDomain(7); got != "qs/shard/7" {
		t.Errorf("ShardDomain(7) = %q", got)
	}
}

func mustEd25519(t *testing.T, cfg ids.Config) *Ed25519Ring {
	t.Helper()
	ring, err := NewEd25519Ring(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

// BenchmarkQuorumCertVerify measures the signature cost of validating
// one lazy-replication commit certificate at n=7, f=2 (q=5): 2q
// signature checks serially versus one batched pass whose dedup
// collapses the q identical embedded-prepare copies into a single
// check (q+1 total). The ns/verify metric is per certificate item, so
// serial/batched is the per-signature amortization. It is one of the
// three `make bench-smoke` gates: batched above serial means batch
// verification has stopped paying for itself.
func BenchmarkQuorumCertVerify(b *testing.B) {
	cfg := ids.MustConfig(7, 2)
	ring, err := NewEd25519Ring(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	items := certItems(b, cfg, ring)
	var serial, batched float64 // ns/verify of each side's last, longest run
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, err := range VerifySerial(ring, items) {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		serial = float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(items))
		b.ReportMetric(serial, "ns/verify")
	})
	b.Run("batched", func(b *testing.B) {
		pool := NewPool(ring, 0)
		defer pool.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, err := range pool.VerifyBatch(items) {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		batched = float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(items))
		b.ReportMetric(batched, "ns/verify")
	})
	// A side that -bench filtered out never ran; nothing to compare.
	if serial == 0 || batched == 0 {
		return
	}
	b.Logf("cert verify, serial over batched: %.0f / %.0f ns/verify = %.2fx (gate: >= 1.0x)", serial, batched, serial/batched)
	if batched > serial {
		b.Fatalf("batched certificate verification costs %.0f ns/verify, serial %.0f", batched, serial)
	}
}

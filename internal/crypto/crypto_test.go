package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"quorumselect/internal/ids"
)

func rings(t *testing.T) map[string]Authenticator {
	t.Helper()
	cfg := ids.MustConfig(4, 1)
	ed, err := NewEd25519Ring(cfg, nil)
	if err != nil {
		t.Fatalf("NewEd25519Ring: %v", err)
	}
	return map[string]Authenticator{
		"ed25519": ed,
		"hmac":    NewHMACRing(cfg, []byte("master secret")),
	}
}

func TestSignVerify(t *testing.T) {
	for name, ring := range rings(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("the canonical bytes of a message")
			sig, err := ring.Sign(2, msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if err := ring.Verify(2, msg, sig); err != nil {
				t.Errorf("Verify of genuine signature failed: %v", err)
			}
		})
	}
}

func TestVerifyRejectsTamperedData(t *testing.T) {
	for name, ring := range rings(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("original")
			sig, _ := ring.Sign(1, msg)
			if err := ring.Verify(1, []byte("tampered"), sig); err == nil {
				t.Error("tampered data verified")
			}
		})
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	for name, ring := range rings(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("hello")
			sig, _ := ring.Sign(1, msg)
			if err := ring.Verify(2, msg, sig); err == nil {
				t.Error("signature by p1 verified as p2 (impersonation)")
			}
		})
	}
}

func TestVerifyRejectsGarbageSignature(t *testing.T) {
	for name, ring := range rings(t) {
		t.Run(name, func(t *testing.T) {
			if err := ring.Verify(1, []byte("x"), []byte("not a signature")); err == nil {
				t.Error("garbage signature verified")
			}
		})
	}
}

func TestUnknownSigner(t *testing.T) {
	for name, ring := range rings(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := ring.Sign(99, []byte("x")); err == nil {
				t.Error("Sign for unknown process succeeded")
			}
			if err := ring.Verify(99, []byte("x"), []byte("sig")); err == nil {
				t.Error("Verify for unknown process succeeded")
			}
		})
	}
}

func TestEd25519View(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	full, err := NewEd25519Ring(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	view := full.View(2)
	msg := []byte("data")
	if _, err := view.Sign(2, msg); err != nil {
		t.Errorf("view cannot sign as its owner: %v", err)
	}
	if _, err := view.Sign(3, msg); err == nil {
		t.Error("view signed as a different process")
	}
	// The view still verifies everyone.
	sig, _ := full.Sign(3, msg)
	if err := view.Verify(3, msg, sig); err != nil {
		t.Errorf("view cannot verify p3: %v", err)
	}
}

func TestDeterministicKeyGeneration(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	a, _ := NewEd25519Ring(cfg, deterministicReader(7))
	b, _ := NewEd25519Ring(cfg, deterministicReader(7))
	msg := []byte("m")
	sig, _ := a.Sign(1, msg)
	if err := b.Verify(1, msg, sig); err != nil {
		t.Error("same seed produced different keys")
	}
}

func TestNopRing(t *testing.T) {
	var ring NopRing
	sig, err := ring.Sign(1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.Verify(42, []byte("anything"), sig); err != nil {
		t.Error("NopRing must accept everything")
	}
}

func TestDigest(t *testing.T) {
	a := Digest([]byte("x"))
	b := Digest([]byte("x"))
	c := Digest([]byte("y"))
	if string(a) != string(b) {
		t.Error("Digest not deterministic")
	}
	if string(a) == string(c) {
		t.Error("Digest collision on different inputs")
	}
	if len(a) != 32 {
		t.Errorf("Digest length = %d, want 32", len(a))
	}
}

// TestHMACRingMatchesFreshMAC: the pooled, Reset-before-use MAC state
// yields the same tag as a freshly keyed hmac.New on every input —
// including inputs that follow a longer or shorter one through the same
// pooled state.
func TestHMACRingMatchesFreshMAC(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	master := []byte("master secret")
	ring := NewHMACRing(cfg, master)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := ids.ProcessID(1 + rng.Intn(cfg.N))
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		km := hmac.New(sha256.New, master)
		fmt.Fprintf(km, "process-key-%d", p)
		fresh := hmac.New(sha256.New, km.Sum(nil))
		fresh.Write(data)
		want := fresh.Sum(nil)
		got, err := ring.Sign(p, data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("input %d (%s, %d bytes): tag %x, fresh MAC %x", i, p, len(data), got, want)
		}
		if err := ring.Verify(p, data, want); err != nil {
			t.Fatalf("input %d: fresh MAC rejected: %v", i, err)
		}
	}
}

// TestHMACRingConcurrent signs and verifies from several goroutines at
// once over the shared per-process pools (run it under -race).
func TestHMACRingConcurrent(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	ring := NewHMACRing(cfg, []byte("master secret"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := ids.ProcessID(1 + (g+i)%cfg.N)
				data := []byte(fmt.Sprintf("goroutine %d message %d", g, i))
				sig, err := ring.Sign(p, data)
				if err != nil {
					t.Error(err)
					return
				}
				if err := ring.Verify(p, data, sig); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if ring.Verify(p, append(data, '!'), sig) == nil {
					t.Errorf("goroutine %d: tampered data verified", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

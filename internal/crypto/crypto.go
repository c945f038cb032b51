// Package crypto provides the message-authentication primitives the
// paper assumes unbreakable ("we assume that cryptographic primitives
// cannot be broken", §IV).
//
// Two interchangeable authenticators are provided:
//
//   - Ed25519Ring: real public-key signatures (crypto/ed25519), used by
//     the TCP deployment and any test that exercises actual forgery
//     resistance.
//   - HMACRing: per-pair HMAC-SHA256 authenticators, cheaper, matching
//     the MAC-based authentication common in PBFT-style systems.
//   - NopRing: no-op authenticator for pure algorithm simulations where
//     the adversary is modeled at the protocol level and crypto cost
//     would only slow the event loop.
//
// All three implement Authenticator, so protocol code is agnostic.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"sync"

	"quorumselect/internal/ids"
)

// Authenticator signs canonical message bytes on behalf of the local
// process and verifies signatures attributed to any process in Π.
type Authenticator interface {
	// Sign returns a signature over data using the key of process as.
	// Implementations may restrict signing to the local process.
	Sign(as ids.ProcessID, data []byte) ([]byte, error)
	// Verify checks that sig is a valid signature over data by signer.
	Verify(signer ids.ProcessID, data []byte, sig []byte) error
}

// ErrBadSignature is returned by Verify on any authentication failure.
var ErrBadSignature = errors.New("crypto: signature verification failed")

// ErrUnknownSigner is returned when the claimed signer is not in Π.
var ErrUnknownSigner = errors.New("crypto: unknown signer")

// Digest returns the SHA-256 digest of data; used for request hashes in
// COMMIT and baseline phase messages.
func Digest(data []byte) []byte {
	d := sha256.Sum256(data)
	return d[:]
}

// Ed25519Ring holds one ed25519 keypair per process. All processes know
// all public keys; each runtime instance additionally holds the private
// keys it is entitled to use (in simulations, all of them).
type Ed25519Ring struct {
	pub  map[ids.ProcessID]ed25519.PublicKey
	priv map[ids.ProcessID]ed25519.PrivateKey
}

var _ Authenticator = (*Ed25519Ring)(nil)

// NewEd25519Ring generates a fresh keyring for all n processes using
// the given randomness source (pass a seeded source for deterministic
// tests; nil falls back to a fixed-seed source).
func NewEd25519Ring(cfg ids.Config, rnd io.Reader) (*Ed25519Ring, error) {
	if rnd == nil {
		rnd = deterministicReader(1)
	}
	r := &Ed25519Ring{
		pub:  make(map[ids.ProcessID]ed25519.PublicKey, cfg.N),
		priv: make(map[ids.ProcessID]ed25519.PrivateKey, cfg.N),
	}
	for _, p := range cfg.All() {
		pub, priv, err := ed25519.GenerateKey(rnd)
		if err != nil {
			return nil, fmt.Errorf("crypto: generating key for %s: %w", p, err)
		}
		r.pub[p] = pub
		r.priv[p] = priv
	}
	return r, nil
}

// Sign implements Authenticator.
func (r *Ed25519Ring) Sign(as ids.ProcessID, data []byte) ([]byte, error) {
	priv, ok := r.priv[as]
	if !ok {
		return nil, fmt.Errorf("%w: no private key for %s", ErrUnknownSigner, as)
	}
	return ed25519.Sign(priv, data), nil
}

// Verify implements Authenticator.
func (r *Ed25519Ring) Verify(signer ids.ProcessID, data []byte, sig []byte) error {
	pub, ok := r.pub[signer]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSigner, signer)
	}
	if !ed25519.Verify(pub, data, sig) {
		return fmt.Errorf("%w: signer %s", ErrBadSignature, signer)
	}
	return nil
}

// View returns a restricted ring containing all public keys but only
// the private key of owner, modelling a real deployment where each
// process holds only its own signing key.
func (r *Ed25519Ring) View(owner ids.ProcessID) *Ed25519Ring {
	v := &Ed25519Ring{
		pub:  r.pub,
		priv: map[ids.ProcessID]ed25519.PrivateKey{},
	}
	if priv, ok := r.priv[owner]; ok {
		v.priv[owner] = priv
	}
	return v
}

// HMACRing derives one symmetric key per process from a master secret
// and authenticates with HMAC-SHA256. A signature by process p can be
// verified by anyone holding the ring — adequate for simulations and
// for trusted-LAN deployments, and substantially faster than ed25519.
type HMACRing struct {
	// macs pools each process's keyed HMAC state: keying costs two
	// SHA-256 blocks and five allocations, Reset costs neither.
	macs map[ids.ProcessID]*sync.Pool
}

var _ Authenticator = (*HMACRing)(nil)

// NewHMACRing derives per-process keys from master for all processes.
func NewHMACRing(cfg ids.Config, master []byte) *HMACRing {
	r := &HMACRing{macs: make(map[ids.ProcessID]*sync.Pool, cfg.N)}
	for _, p := range cfg.All() {
		mac := hmac.New(sha256.New, master)
		fmt.Fprintf(mac, "process-key-%d", p)
		key := mac.Sum(nil)
		r.macs[p] = &sync.Pool{New: func() any { return hmac.New(sha256.New, key) }}
	}
	return r
}

// mac appends as's HMAC of data to dst.
func (r *HMACRing) mac(as ids.ProcessID, data, dst []byte) ([]byte, error) {
	pool, ok := r.macs[as]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSigner, as)
	}
	h := pool.Get().(hash.Hash)
	h.Reset()
	h.Write(data)
	dst = h.Sum(dst)
	pool.Put(h)
	return dst, nil
}

// Sign implements Authenticator.
func (r *HMACRing) Sign(as ids.ProcessID, data []byte) ([]byte, error) {
	return r.mac(as, data, make([]byte, 0, sha256.Size))
}

// Verify implements Authenticator.
func (r *HMACRing) Verify(signer ids.ProcessID, data []byte, sig []byte) error {
	var buf [sha256.Size]byte
	want, err := r.mac(signer, data, buf[:0])
	if err != nil {
		return err
	}
	if !hmac.Equal(want, sig) {
		return fmt.Errorf("%w: signer %s", ErrBadSignature, signer)
	}
	return nil
}

// NopRing accepts everything. Simulation-only: with NopRing the
// adversary is modeled at the protocol level (which messages faulty
// processes send) rather than the crypto level.
type NopRing struct{}

var _ Authenticator = NopRing{}

// Sign implements Authenticator; the returned tag is constant.
func (NopRing) Sign(ids.ProcessID, []byte) ([]byte, error) { return []byte{0}, nil }

// Verify implements Authenticator; it always succeeds.
func (NopRing) Verify(ids.ProcessID, []byte, []byte) error { return nil }

// deterministicReader yields a reproducible byte stream for key
// generation in tests and simulations.
func deterministicReader(seed int64) io.Reader {
	return readerFunc{r: rand.New(rand.NewSource(seed))}
}

type readerFunc struct{ r *rand.Rand }

func (f readerFunc) Read(p []byte) (int, error) {
	// rand.Rand.Read fills the whole slice from the generator's word
	// stream (8 bytes per draw) and never fails; drawing one byte per
	// Intn call made key generation for large rings measurably slow.
	return f.r.Read(p)
}

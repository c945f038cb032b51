package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
)

// FuzzWireMutation pins the chaos-mutation contract: every mutant
// differs from its input, and a mutant that still decodes is a
// different message (canonical re-encode ≠ original). For properly
// signed originals, a decodable mutant whose signed content or
// signature changed must fail verification — no silent-equal mutants,
// no accidental forgeries.
//
//	go test -fuzz=FuzzWireMutation ./internal/wire
func FuzzWireMutation(f *testing.F) {
	for i, m := range sampleMessages() {
		f.Add(Encode(m), int64(i))
	}
	f.Add([]byte{}, int64(0))
	f.Add(hostileUpdate(), int64(0))
	for _, frame := range reservedTagFrames() {
		f.Add(frame, int64(0))
	}
	cfg := ids.MustConfig(16, 5)
	ring := crypto.NewHMACRing(cfg, []byte("fuzz-mutation-master"))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		orig, err := Decode(data)
		if err != nil {
			return // mutation only ever sees frames off the sim wire
		}
		// Give signed originals a real signature so the verification
		// arm of the invariant is exercised, not vacuous.
		if s, ok := orig.(Signed); ok {
			if sig, err := ring.Sign(s.Signer(), s.SigBytes()); err == nil {
				s.SetSignature(sig)
			}
			data = Encode(orig)
		}

		rng := rand.New(rand.NewSource(seed))
		mutated := MutateFrame(rng, append([]byte(nil), data...))
		if bytes.Equal(mutated, data) {
			t.Fatalf("silent-equal mutant of %x", data)
		}

		m2, err := Decode(mutated)
		if err != nil {
			return // dropped as line garbage — a legal outcome
		}
		re := Encode(m2)
		if !bytes.Equal(re, mutated) {
			t.Fatalf("mutant accepted non-canonically:\n in: %x\nout: %x", mutated, re)
		}
		if bytes.Equal(re, data) {
			t.Fatalf("mutant decoded back to the original message: %x", data)
		}
		s2, ok := m2.(Signed)
		if !ok {
			return
		}
		if err := ring.Verify(s2.Signer(), s2.SigBytes(), s2.Signature()); err == nil {
			// A verifying mutant is only legal if neither the signed
			// content nor the signature changed (the mutation landed in
			// a field outside the signature's coverage).
			so := orig.(Signed)
			if !bytes.Equal(s2.SigBytes(), so.SigBytes()) || !bytes.Equal(s2.Signature(), so.Signature()) {
				t.Fatalf("mutant with altered signed content still verifies: %#v", m2)
			}
		}
	})
}

// TestMutateFrameAlwaysDiffers sweeps every sample message across many
// seeds: the mutant must differ byte-wise from the input every time.
func TestMutateFrameAlwaysDiffers(t *testing.T) {
	for _, m := range sampleMessages() {
		data := Encode(m)
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			mutated := MutateFrame(rng, append([]byte(nil), data...))
			if bytes.Equal(mutated, data) {
				t.Fatalf("%s seed %d: silent-equal mutant", m.Kind(), seed)
			}
		}
	}
}

// TestMutateFrameDeterministic: identical seed and frame produce an
// identical mutant — required for replayable chaos runs.
func TestMutateFrameDeterministic(t *testing.T) {
	for _, m := range sampleMessages() {
		data := Encode(m)
		for seed := int64(0); seed < 20; seed++ {
			a := MutateFrame(rand.New(rand.NewSource(seed)), append([]byte(nil), data...))
			b := MutateFrame(rand.New(rand.NewSource(seed)), append([]byte(nil), data...))
			if !bytes.Equal(a, b) {
				t.Fatalf("%s seed %d: nondeterministic mutation", m.Kind(), seed)
			}
		}
	}
}

// TestMutateFrameShardScramble pins the cross-shard misrouting arm:
// across seeds, some mutants of a ShardEnvelope must be relabeled
// envelopes — same inner frame, different shard — and every such
// mutant must still decode canonically (the demultiplexer, not the
// codec, is responsible for rejecting it).
func TestMutateFrameShardScramble(t *testing.T) {
	inner := &Request{Client: 7, Seq: 42, Op: []byte("set x=1")}
	data := Encode(&ShardEnvelope{Shard: 1, Inner: inner})
	relabeled := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mutated := MutateFrame(rng, append([]byte(nil), data...))
		m, err := Decode(mutated)
		if err != nil {
			continue
		}
		env, ok := m.(*ShardEnvelope)
		if !ok || !reflect.DeepEqual(env.Inner, inner) {
			continue
		}
		if env.Shard == 1 {
			t.Fatalf("seed %d: unchanged shard on a mutated envelope", seed)
		}
		relabeled++
	}
	if relabeled == 0 {
		t.Fatal("no seed exercised the shard-scramble mutation")
	}
}

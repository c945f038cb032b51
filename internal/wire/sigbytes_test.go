package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// signedSamples is every Signed message of the fuzz seed corpus.
func signedSamples() []Signed {
	var out []Signed
	for _, m := range sampleMessages() {
		if s, ok := m.(Signed); ok {
			out = append(out, s)
		}
	}
	return out
}

// TestSigBytesGolden pins signature coverage: for every Signed message
// of the fuzz seed corpus, SigBytes() must equal the bytes recorded in
// testdata/sigbytes.golden, which were produced by the append-per-field
// implementation this package started with. A change to what a
// signature covers is a protocol change; regenerate only for one
// (UPDATE_GOLDEN=1 go test ./internal/wire/).
func TestSigBytesGolden(t *testing.T) {
	var b strings.Builder
	for i, s := range signedSamples() {
		fmt.Fprintf(&b, "%02d %s %s\n", i, s.Kind(), hex.EncodeToString(s.SigBytes()))
	}
	got := b.String()
	path := filepath.Join("testdata", "sigbytes.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("signature coverage moved:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSigBytesIsPrefixOfBody ties SigBytes to the frame for every
// Signed kind: the signed bytes are exactly the head of the encoded
// body (everything before the signature field), so a sizing mistake
// cannot hide behind an equally wrong golden file.
func TestSigBytesIsPrefixOfBody(t *testing.T) {
	for _, s := range signedSamples() {
		frame := Encode(s)
		if sb := s.SigBytes(); !bytes.HasPrefix(frame[1:], sb) {
			t.Errorf("%s: SigBytes is not a prefix of the encoded body", s.Kind())
		}
	}
}

// TestSigBytesOneExactAllocation is the allocation budget of part (2):
// SigBytes sizes its buffer up front, so every Signed kind costs exactly
// one allocation of exactly the signed length.
func TestSigBytesOneExactAllocation(t *testing.T) {
	for _, s := range signedSamples() {
		if sb := s.SigBytes(); cap(sb) != len(sb) {
			t.Errorf("%s: SigBytes len %d in a buffer of cap %d", s.Kind(), len(sb), cap(sb))
		}
		if allocs := testing.AllocsPerRun(100, func() { s.SigBytes() }); allocs != 1 {
			t.Errorf("%s: SigBytes = %v allocs, want exactly 1", s.Kind(), allocs)
		}
	}
	// The n=64 suspicion row the select-scale workload signs and verifies.
	up := &Update{Owner: 7, Row: make([]uint64, 64)}
	if allocs := testing.AllocsPerRun(100, func() { up.SigBytes() }); allocs != 1 {
		t.Errorf("n=64 UPDATE: SigBytes = %v allocs, want exactly 1", allocs)
	}
}

// checkKeptSigBytes decodes frame with DecodeSigned and requires the
// kept signed bytes to be the SigBytes of the message the frame
// carries (an envelope's inner one), or nil when it is unsigned.
func checkKeptSigBytes(t *testing.T, frame []byte) {
	t.Helper()
	m, kept, err := DecodeSigned(frame)
	if err != nil {
		t.Fatalf("DecodeSigned: %v", err)
	}
	if env, ok := m.(*ShardEnvelope); ok {
		m = env.Inner
	}
	s, ok := m.(Signed)
	switch {
	case !ok && kept != nil:
		t.Fatalf("%s is unsigned, yet %d signed bytes were kept", m.Kind(), len(kept))
	case ok && !bytes.Equal(kept, s.SigBytes()):
		t.Fatalf("%s: kept signed bytes\n %x\ndiffer from SigBytes\n %x", m.Kind(), kept, s.SigBytes())
	}
}

// TestDecodeSignedKeepsSigBytes: for every sample frame, bare and in a
// shard envelope, the signed bytes DecodeSigned keeps are exactly what
// SigBytes re-encodes, and they cannot be appended past.
func TestDecodeSignedKeepsSigBytes(t *testing.T) {
	for _, m := range sampleMessages() {
		checkKeptSigBytes(t, Encode(m))
		if _, isEnv := m.(*ShardEnvelope); !isEnv {
			checkKeptSigBytes(t, Encode(&ShardEnvelope{Shard: 5, Inner: m}))
		}
	}
	frame := Encode(&ShardEnvelope{Shard: 1, Inner: &Update{Owner: 2, Row: []uint64{1}, Sig: []byte{7}}})
	if _, kept, _ := DecodeSigned(frame); cap(kept) != len(kept) {
		t.Errorf("kept signed bytes have spare capacity %d: an append would overwrite the frame", cap(kept)-len(kept))
	}
}

// TestEnvelopeRejectsNestingAndTrailingBytes: an envelope's inner frame
// is a frame of its own — exactly its length, never another envelope.
func TestEnvelopeRejectsNestingAndTrailingBytes(t *testing.T) {
	nested := Encode(&ShardEnvelope{Shard: 1, Inner: &ShardEnvelope{Shard: 2, Inner: &Heartbeat{From: 1, Seq: 1}}})
	if _, err := Decode(nested); err == nil {
		t.Error("nested envelope decoded")
	}
	frame := Encode(&ShardEnvelope{Shard: 1, Inner: &Heartbeat{From: 1, Seq: 1}})
	// Grow the inner length by one and append a byte inside it.
	frame[envelopeHeader-1]++
	frame = append(frame, 0)
	if _, err := Decode(frame); err == nil {
		t.Error("envelope with a trailing byte inside its inner frame decoded")
	}
}

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

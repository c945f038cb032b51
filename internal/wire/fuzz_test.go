package wire

import (
	"bytes"
	"testing"
)

// FuzzDecode drives the codec with arbitrary bytes: it must never
// panic, and anything it accepts must re-encode canonically.
//
//	go test -fuzz=FuzzDecode ./internal/wire
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Encode(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	f.Add(hostileUpdate())
	for _, frame := range reservedTagFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(msg)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical encoding:\n in: %x\nout: %x", data, re)
		}
		// Signed messages must expose stable signing bytes, and they
		// must be the bytes DecodeSigned kept from the frame.
		if s, ok := msg.(Signed); ok {
			a := s.SigBytes()
			b := s.SigBytes()
			if !bytes.Equal(a, b) {
				t.Fatal("SigBytes not deterministic")
			}
		}
		checkKeptSigBytes(t, data)
	})
}

// FuzzKVSnapshot is in the xpaxos package (snapshot decoding); this one
// covers the reader primitives against arbitrary splits.
func FuzzReaderPrimitives(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		// Walk the buffer with a fixed schedule of reads; all must
		// either succeed in-bounds or fail cleanly.
		r.Uint8()
		r.Uint32()
		r.Uint64()
		r.Bool()
		r.Bytes()
		r.Procs()
		r.Uint64s()
		if r.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
	})
}

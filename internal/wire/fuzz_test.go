package wire

import (
	"bytes"
	"testing"

	"quorumselect/internal/ids"
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

// FuzzReaderPrimitives covers the codec's decode primitives against
// arbitrary splits, in a network frame and in local durable bytes. (The
// durable layouts are fuzzed by FuzzDurableRestore in xpaxos and host.)
func FuzzReaderPrimitives(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, local := range []bool{false, true} {
			c := decoder(data)
			c.r.local = local
			// Walk the input with a fixed schedule of reads; all must
			// either succeed in-bounds or fail cleanly.
			var (
				u8  uint8
				u32 uint32
				u64 uint64
				b   bool
				bs  []byte
				s   string
				ps  []ids.ProcessID
				us  []uint64
				tc  TraceContext
			)
			c.U8(&u8)
			c.U32(&u32)
			c.U64(&u64)
			c.flag(&b)
			c.Bytes(&bs)
			c.Str(&s)
			c.procs(&ps)
			c.u64s(&us)
			c.trace(&tc)
			if c.r.Remaining() < 0 {
				t.Fatal("negative remaining")
			}
		}
	})
}

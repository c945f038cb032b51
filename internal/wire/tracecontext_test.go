package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestUvarintRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<40 | 7, 1<<63 - 1, ^uint64(0)}
	for _, v := range vals {
		enc := &Codec{}
		enc.uvarint(&v)
		c := decoder(enc.b.buf)
		var got uint64
		c.uvarint(&got)
		if c.err != nil {
			t.Fatalf("uvarint(%d): %v", v, c.err)
		}
		if got != v {
			t.Errorf("uvarint round trip: got %d, want %d", got, v)
		}
		if c.r.Remaining() != 0 {
			t.Errorf("uvarint(%d): %d bytes unread", v, c.r.Remaining())
		}
	}
}

func TestUvarintRejectsNonMinimal(t *testing.T) {
	// 0x80 0x00 is a two-byte encoding of 0: legal LEB128, but not the
	// minimal form, so the canonical codec must reject it.
	cases := [][]byte{
		{0x80, 0x00},
		{0xff, 0x00},
		{0x80, 0x80, 0x00},
	}
	for _, enc := range cases {
		if uvarintErr(enc) == nil {
			t.Errorf("non-minimal uvarint % x accepted", enc)
		}
	}
}

func TestUvarintRejectsOverflowAndTruncation(t *testing.T) {
	// Eleven continuation bytes overflow uint64.
	over := bytes.Repeat([]byte{0x80}, 10)
	over = append(over, 0x02)
	if uvarintErr(over) == nil {
		t.Error("overflowing uvarint accepted")
	}
	if uvarintErr(nil) == nil {
		t.Error("empty uvarint accepted")
	}
	if uvarintErr([]byte{0x80}) == nil {
		t.Error("truncated uvarint accepted")
	}
}

// uvarintErr decodes one uvarint from enc and returns the decode's
// error.
func uvarintErr(enc []byte) error {
	var v uint64
	c := decoder(enc)
	c.uvarint(&v)
	return c.err
}

func TestTraceContextOutsideSignature(t *testing.T) {
	// Restamping the context on a bare signed frame must not disturb
	// the signed bytes or the signature — tracing never forces
	// re-signing, and a context mutation can never invalidate a frame.
	stamp := TraceContext{Trace: 0xfeed, Span: 0xbeef}
	carriers := 0
	for _, m := range sampleMessages() {
		tc := TraceField(m)
		if tc == nil {
			continue
		}
		carriers++
		s, signed := m.(Signed)
		var sigBefore, coveredBefore []byte
		if signed {
			coveredBefore = append([]byte(nil), s.SigBytes()...)
			sigBefore = append([]byte(nil), signature(s)...)
		}
		before := Encode(m)
		*tc = stamp
		after := Encode(m)
		if bytes.Equal(before, after) {
			t.Errorf("%s: restamping the context did not change the frame", m.Kind())
		}
		if signed {
			if !bytes.Equal(coveredBefore, s.SigBytes()) {
				t.Errorf("%s: trace context leaks into SigBytes", m.Kind())
			}
			if !bytes.Equal(sigBefore, signature(s)) {
				t.Errorf("%s: trace context altered the signature", m.Kind())
			}
		}
		got, err := Decode(after)
		if err != nil {
			t.Fatalf("%s: restamped frame does not decode: %v", m.Kind(), err)
		}
		if *TraceField(got) != stamp {
			t.Errorf("%s: context did not round trip", m.Kind())
		}
	}
	// BATCH, PREPARE, COMMIT, VIEW-CHANGE and NEW-VIEW samples carry one;
	// a certificate's or an envelope's inner messages' are not its own.
	if want := 12; carriers != want {
		t.Errorf("%d samples carry a trace context, want %d", carriers, want)
	}
}

func TestTraceContextZero(t *testing.T) {
	if !(TraceContext{}).Zero() {
		t.Error("zero value not Zero()")
	}
	if (TraceContext{Trace: 1}).Zero() || (TraceContext{Span: 1}).Zero() {
		t.Error("non-zero context reported Zero()")
	}
	// Untraced frames cost exactly two context bytes.
	c := &Codec{}
	c.trace(&TraceContext{})
	if len(c.b.buf) != 2 {
		t.Errorf("zero context encodes to %d bytes, want 2", len(c.b.buf))
	}
}

func TestPutUvarintMatchesBinary(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 21, ^uint64(0)} {
		c := &Codec{}
		c.uvarint(&v)
		want := binary.AppendUvarint(nil, v)
		if !bytes.Equal(c.b.buf, want) {
			t.Errorf("uvarint(%d) = % x, want % x", v, c.b.buf, want)
		}
	}
}

package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"quorumselect/internal/ids"
)

// Codec is the two-way walker every format's layout runs: each wire
// message's layout method, and the layouts of the durable formats the
// replicas keep (WAL records, snapshots, checkpoints). A layout lists
// the format's fields once, in order; the codec encodes them through its
// buffer (appending, bounded or sizing, as the buffer is set up) or, when
// decoding, reads them from its input (take). A decode keeps its first
// error, so a layout needs no error handling: reads after it are
// bounds-checked garbage the caller never sees, and a slice whose count
// was not read cleanly has no elements to walk.
//
// A durable format is written with NewEncoder and Encoded and read back
// with NewDecoder and Decoded, its layout called between the two.
//
// Signed framing is written once, here: tag opens a signed body and sig
// closes it. The sig that closes at depth 0 belongs to the outermost
// message — a COMMIT's embedded PREPARE closes its own inside the
// COMMIT's signed bytes — so it marks where those bytes end (sigEnd)
// and records the message's signature field, and the trace context laid
// out at depth 0 is the message's own.
type Codec struct {
	b   buffer
	r   reader
	dec bool
	err error

	depth  int
	sigEnd int // decode: offset into the frame; encode: bytes laid out before it
	ownSig *[]byte
	ownTC  *TraceContext
}

// codecPool recycles codecs: handed to a layout through the Message
// interface, a codec — with its buffer or reader — would otherwise
// escape to the heap once per encode or decode.
var codecPool = sync.Pool{New: func() any { return new(Codec) }}

func newCodec() *Codec { return codecPool.Get().(*Codec) }

// release resets the codec, dropping the references it took, and pools
// it.
func (c *Codec) release() {
	*c = Codec{}
	codecPool.Put(c)
}

// NewEncoder returns a codec that appends what a layout lays out to
// dst, growing it as append does; Encoded ends the encode.
func NewEncoder(dst []byte) *Codec {
	c := newCodec()
	c.b = buffer{buf: dst}
	return c
}

// NewDecoder returns a codec that decodes data; Decoded ends the
// decode. data is local durable bytes — a WAL record, a snapshot, a
// checkpoint — so a count is checked against the bytes present before
// anything is allocated, but not against the 1 MiB cap on a network
// frame's counts (maxSliceLen): a snapshot or checkpoint may be larger.
func NewDecoder(data []byte) *Codec {
	c := newCodec()
	c.dec, c.r = true, reader{buf: data, local: true}
	return c
}

// Encoded ends an encode: it returns the encoding and releases c.
func (c *Codec) Encoded() []byte {
	out := c.b.buf
	c.release()
	return out
}

// Decoded ends a decode: it returns the first error a field met, or an
// error if bytes remain after the layout, and releases c.
func (c *Codec) Decoded() error {
	err := c.err
	if err == nil && c.r.Remaining() != 0 {
		err = fmt.Errorf("wire: %d trailing bytes", c.r.Remaining())
	}
	c.release()
	return err
}

// fail keeps err if it is the decode's first. A field read writes the
// codec only on failure: a store per field into the pooled (heap)
// codec would cost a GC write barrier each.
func (c *Codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// frame lays out m as a frame: its type tag, then its body.
func (c *Codec) frame(m Message) {
	c.b.PutUint8(uint8(m.Kind()))
	m.layout(c)
}

// message decodes one frame: its type tag, then its body.
func (c *Codec) message() Message {
	var tag uint8
	c.U8(&tag)
	if c.err != nil {
		return nil
	}
	m := newMessage(Type(tag))
	if m == nil {
		c.fail(fmt.Errorf("%w: %d", ErrUnknownType, tag))
		return nil
	}
	m.layout(c)
	return m
}

// take returns the next n bytes of a decode, or nil — failing the
// decode — when fewer remain.
func (c *Codec) take(n int) []byte {
	if c.r.Remaining() < n {
		c.fail(ErrTruncated)
		return nil
	}
	c.r.off += n
	return c.r.buf[c.r.off-n : c.r.off]
}

// count lays out the uint32 element count of a slice whose elements
// each take at least minSize encoded bytes, and returns it: n when
// encoding; when decoding, the count read, or 0 once the decode has
// failed. A decoded count is checked before the caller allocates
// anything: against maxSliceLen in a network frame, and against the
// bytes left, so a short hostile input claiming a huge slice costs an
// error, not memory.
func (c *Codec) count(n, minSize int) int {
	if !c.dec {
		c.b.PutUint32(uint32(n))
		return n
	}
	b := c.take(4)
	if c.err != nil {
		return 0
	}
	x := binary.BigEndian.Uint32(b)
	switch {
	case x > maxSliceLen && !c.r.local:
		c.fail(fmt.Errorf("wire: slice length %d exceeds limit", x))
		return 0
	case uint64(x)*uint64(minSize) > uint64(c.r.Remaining()):
		c.fail(ErrTruncated)
		return 0
	}
	return int(x)
}

// U8 lays out one byte.
func (c *Codec) U8(v *uint8) {
	if !c.dec {
		c.b.PutUint8(*v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// U32 lays out a big-endian uint32.
func (c *Codec) U32(v *uint32) {
	if !c.dec {
		c.b.PutUint32(*v)
	} else if b := c.take(4); b != nil {
		*v = binary.BigEndian.Uint32(b)
	}
}

// U64 lays out a big-endian uint64.
func (c *Codec) U64(v *uint64) {
	if !c.dec {
		c.b.PutUint64(*v)
	} else if b := c.take(8); b != nil {
		*v = binary.BigEndian.Uint64(b)
	}
}

// flag lays out a boolean as one byte; a decode rejects bytes other
// than 0 and 1.
func (c *Codec) flag(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.U8(&b)
	if b > 1 {
		c.fail(fmt.Errorf("wire: invalid bool byte %d", b))
	}
	*v = b == 1
}

func (c *Codec) proc(v *ids.ProcessID) {
	x := uint32(*v)
	c.U32(&x)
	*v = ids.ProcessID(x)
}

// Bytes lays out a byte slice behind its uint32 length. A decoded
// slice is a copy: it never aliases the bytes decoded.
func (c *Codec) Bytes(v *[]byte) {
	n := c.count(len(*v), 1)
	if !c.dec {
		copy(c.b.extend(n), *v)
		return
	}
	out := make([]byte, n)
	copy(out, c.take(n))
	*v = out
}

// Str lays out a string as Bytes lays out its bytes.
func (c *Codec) Str(v *string) {
	n := c.count(len(*v), 1)
	if !c.dec {
		copy(c.b.extend(n), *v)
	} else {
		*v = string(c.take(n))
	}
}

// Frame lays out the message *m as a frame behind its uint32 length —
// what Bytes(Encode(*m)) lays out — written in place, its length
// patched in once it is written. A decoded frame must fill its length
// exactly, like a frame of its own.
func (c *Codec) Frame(m *Message) {
	if !c.dec {
		at := len(c.b.buf)
		c.b.PutUint32(0) // the frame's length, filled in below
		c.frame(*m)
		if !c.b.sizing {
			binary.BigEndian.PutUint32(c.b.buf[at:], uint32(len(c.b.buf)-at-4))
		}
		return
	}
	n := c.count(0, 1) // the frame's length
	if c.err != nil {
		return
	}
	// The frame is read in place, with the reader cut off where it ends.
	full := c.r.buf
	c.r.buf = full[:c.r.off+n]
	*m = c.message()
	trailing := c.r.Remaining()
	c.r.buf = full
	if c.err == nil && trailing != 0 {
		c.fail(fmt.Errorf("wire: %d trailing bytes after framed %s", trailing, (*m).Kind()))
	}
}

// Records lays out a run of records kept as one byte string, raw, that
// holds their encodings back to back: the count *n, then raw, which has
// no length of its own. Decoding walks *n records with record, each of
// which reads at least one byte, to find where the run ends — so every
// record must decode — and copies the run into raw.
func (c *Codec) Records(n *uint32, raw *[]byte, record func(*Codec)) {
	c.U32(n)
	if !c.dec {
		copy(c.b.extend(len(*raw)), *raw)
		return
	}
	start := c.r.off
	for i := uint32(0); i < *n && c.err == nil; i++ {
		record(c)
	}
	if c.err == nil {
		*raw = append([]byte(nil), c.r.buf[start:c.r.off]...)
	}
}

func (c *Codec) procs(v *[]ids.ProcessID) {
	n := c.count(len(*v), 4)
	if !c.dec {
		if dst := c.b.extend(4 * n); dst != nil {
			for i, p := range *v {
				binary.BigEndian.PutUint32(dst[4*i:], uint32(p))
			}
		}
		return
	}
	out, raw := make([]ids.ProcessID, n), c.take(4*n)
	for i := range out {
		out[i] = ids.ProcessID(binary.BigEndian.Uint32(raw[4*i:]))
	}
	*v = out
}

func (c *Codec) u64s(v *[]uint64) {
	n := c.count(len(*v), 8)
	if !c.dec {
		if dst := c.b.extend(8 * n); dst != nil {
			for i, x := range *v {
				binary.BigEndian.PutUint64(dst[8*i:], x)
			}
		}
		return
	}
	out, raw := make([]uint64, n), c.take(8*n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(raw[8*i:])
	}
	*v = out
}

// uvarint lays out an unsigned varint (LEB128, as encoding/binary
// writes it). The encoding is minimal by construction, and a decode
// rejects non-minimal encodings (a final continuation group of zero,
// e.g. 0x80 0x00 for 0) and 64-bit overflow: accepting either would let
// one value arrive in more than one byte form, breaking the codec's
// canonicity.
func (c *Codec) uvarint(v *uint64) {
	if !c.dec {
		if dst := c.b.extend((bits.Len64(*v|1) + 6) / 7); dst != nil {
			binary.PutUvarint(dst, *v)
		}
		return
	}
	x, n := binary.Uvarint(c.r.buf[c.r.off:])
	switch {
	case n == 0:
		c.fail(ErrTruncated)
	case n < 0:
		c.fail(fmt.Errorf("wire: uvarint overflows 64 bits"))
	case n > 1 && c.r.buf[c.r.off+n-1] == 0:
		c.fail(fmt.Errorf("wire: non-minimal uvarint encoding"))
	default:
		*v = x
		c.r.off += n
	}
}

// trace lays out a trace context as two uvarints, so the common
// untraced case costs two bytes; at depth 0 it is the message's own.
func (c *Codec) trace(v *TraceContext) {
	if c.depth == 0 {
		c.ownTC = v
	}
	c.uvarint(&v.Trace)
	c.uvarint(&v.Span)
}

// tag opens a signed body with its inner type tag. A decode rejects
// any tag but t: accepting non-canonical encodings would let one
// message re-encode differently than it arrived.
func (c *Codec) tag(t Type) {
	c.depth++
	got := uint8(t)
	c.U8(&got)
	if Type(got) != t {
		c.fail(fmt.Errorf("wire: inner tag %d, want %s", got, t))
	}
}

// sig closes a signed body with its signature field, which follows the
// bytes the signature covers.
func (c *Codec) sig(v *[]byte) {
	if c.depth--; c.depth == 0 {
		c.ownSig = v
		switch {
		case c.dec:
			c.sigEnd = c.r.off
		case c.b.sizing:
			c.sigEnd = c.b.n
		default:
			c.sigEnd = len(c.b.buf) - c.b.start
		}
	}
	c.Bytes(v)
}

// Elems lays out a slice's element count and returns it (see count),
// with *s allocated to hold it when decoding. The layout then walks the
// elements itself.
func Elems[T any](c *Codec, s *[]T, minSize int) int {
	n := c.count(len(*s), minSize)
	if c.dec {
		*s = make([]T, n)
	}
	return n
}

// requests lays out a list of requests (a batch, a slot's Rest); an
// empty one decodes to nil.
func (c *Codec) requests(rs *[]Request) {
	n := Elems(c, rs, minRequestSize)
	if n == 0 && c.dec {
		*rs = nil
	}
	for i := range n {
		(*rs)[i].layout(c)
	}
}

// log lays out a view-change log.
func (c *Codec) log(l *[]LogSlot) {
	for i := range Elems(c, l, minLogSlotSize) {
		c.U64(&(*l)[i].Slot)
		(*l)[i].Prep.layout(c)
	}
}

// Signing returns the bytes m's signature covers — what m.SigBytes()
// returns — and a pointer to m's signature field, through which a
// signer attaches the signature and a verifier reads it. A sizing pass
// finds where the signed bytes end; m is then laid out again into a
// buffer bounded to exactly that length, which turns to counting at the
// signature. So it makes one allocation, of exactly the signed length.
func Signing(m Signed) (covered []byte, sig *[]byte) {
	c := newCodec()
	c.b = buffer{sizing: true}
	m.layout(c)
	c.b = buffer{buf: make([]byte, 0, c.sigEnd), bounded: true}
	m.layout(c)
	covered, sig = c.b.buf, c.ownSig
	c.release()
	return covered, sig
}

func sigBytes(m Signed) []byte {
	covered, _ := Signing(m)
	return covered
}

// TraceField returns a pointer to the trace context m piggybacks, or
// nil when m carries none. Restamping it never invalidates a bare
// frame's signature (the context is outside SigBytes). An envelope
// carries none of its own.
func TraceField(m Message) *TraceContext {
	if _, ok := m.(*ShardEnvelope); ok {
		return nil
	}
	c := newCodec()
	c.b = buffer{sizing: true}
	m.layout(c)
	tc := c.ownTC
	c.release()
	return tc
}

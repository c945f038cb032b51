package wire

import (
	"fmt"
	"sync"

	"quorumselect/internal/ids"
)

// codec is the two-way walker every message's layout runs. A layout
// lists the message's fields once, in wire order; the codec encodes
// them through its Buffer (appending, bounded or sizing, as the Buffer
// is set up) or, with dec set, decodes them through its Reader. A decode
// keeps its first error, so a layout needs no error handling: reads
// after it are bounds-checked garbage the caller never sees, and a
// slice whose count was not read cleanly has no elements to walk.
//
// Signed framing is written once, here: tag opens a signed body and sig
// closes it. The sig that closes at depth 0 belongs to the outermost
// message — a COMMIT's embedded PREPARE closes its own inside the
// COMMIT's signed bytes — so it marks where those bytes end (sigEnd)
// and records the message's signature field, and the trace context laid
// out at depth 0 is the message's own.
type codec struct {
	b   Buffer
	r   Reader
	dec bool
	err error

	depth  int
	sigEnd int // decode: offset into the frame; encode: bytes laid out before it
	ownSig *[]byte
	ownTC  *TraceContext
}

// codecPool recycles codecs: handed to a layout through the Message
// interface, a codec — with its Buffer or Reader — would otherwise
// escape to the heap once per encode or decode.
var codecPool = sync.Pool{New: func() any { return new(codec) }}

func newCodec() *codec { return codecPool.Get().(*codec) }

// release resets the codec, dropping the references it took, and pools
// it.
func (c *codec) release() {
	*c = codec{}
	codecPool.Put(c)
}

// fail keeps err if it is the decode's first. A field read writes the
// codec only on failure: a store per field into the pooled (heap)
// codec would cost a GC write barrier each.
func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// frame lays out m as a frame: its type tag, then its body.
func (c *codec) frame(m Message) {
	c.b.PutUint8(uint8(m.Kind()))
	m.layout(c)
}

// message decodes one frame: its type tag, then its body.
func (c *codec) message() Message {
	if c.err != nil {
		return nil
	}
	tag, err := c.r.Uint8()
	if err != nil {
		c.fail(err)
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

func (c *codec) u32(v *uint32) {
	if !c.dec {
		c.b.PutUint32(*v)
	} else if x, err := c.r.Uint32(); err == nil {
		*v = x
	} else {
		c.fail(err)
	}
}

func (c *codec) u64(v *uint64) {
	if !c.dec {
		c.b.PutUint64(*v)
	} else if x, err := c.r.Uint64(); err == nil {
		*v = x
	} else {
		c.fail(err)
	}
}

func (c *codec) flag(v *bool) {
	if !c.dec {
		c.b.PutBool(*v)
	} else if x, err := c.r.Bool(); err == nil {
		*v = x
	} else {
		c.fail(err)
	}
}

func (c *codec) proc(v *ids.ProcessID) {
	if !c.dec {
		c.b.PutProc(*v)
	} else if x, err := c.r.Proc(); err == nil {
		*v = x
	} else {
		c.fail(err)
	}
}

func (c *codec) bytes(v *[]byte) {
	if !c.dec {
		c.b.PutBytes(*v)
	} else if x, err := c.r.Bytes(); err == nil {
		*v = x
	} else {
		c.fail(err)
	}
}

func (c *codec) procs(v *[]ids.ProcessID) {
	if !c.dec {
		c.b.PutProcs(*v)
	} else if x, err := c.r.Procs(); err == nil {
		*v = x
	} else {
		c.fail(err)
	}
}

func (c *codec) u64s(v *[]uint64) {
	if !c.dec {
		c.b.PutUint64s(*v)
	} else if x, err := c.r.Uint64s(); err == nil {
		*v = x
	} else {
		c.fail(err)
	}
}

// trace lays out a trace context; at depth 0 it is the message's own.
func (c *codec) trace(v *TraceContext) {
	if c.depth == 0 {
		c.ownTC = v
	}
	if !c.dec {
		c.b.PutTraceContext(*v)
	} else if x, err := c.r.TraceContext(); err == nil {
		*v = x
	} else {
		c.fail(err)
	}
}

// tag opens a signed body with its inner type tag.
func (c *codec) tag(t Type) {
	c.depth++
	if !c.dec {
		c.b.PutUint8(uint8(t))
	} else if err := c.r.Tag(t); err != nil {
		c.fail(err)
	}
}

// sig closes a signed body with its signature field, which follows the
// bytes the signature covers.
func (c *codec) sig(v *[]byte) {
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
	c.bytes(v)
}

// elems lays out a slice's element count and returns it: len(*s) when
// encoding; when decoding, the count read — checked against minSize
// encoded bytes per element before anything is allocated (see
// Reader.sliceLen) — with *s allocated to hold it. The layout then
// walks the elements itself.
func elems[T any](c *codec, s *[]T, minSize int) int {
	if !c.dec {
		c.b.PutUint32(uint32(len(*s)))
		return len(*s)
	}
	if c.err != nil {
		return 0
	}
	n, err := c.r.sliceLen(minSize)
	if err != nil {
		c.fail(err)
		return 0
	}
	*s = make([]T, n)
	return n
}

// requests lays out a list of requests (a batch, a slot's Rest); an
// empty one decodes to nil.
func (c *codec) requests(rs *[]Request) {
	n := elems(c, rs, minRequestSize)
	if n == 0 && c.dec {
		*rs = nil
	}
	for i := range n {
		(*rs)[i].layout(c)
	}
}

// log lays out a view-change log.
func (c *codec) log(l *[]LogSlot) {
	for i := range elems(c, l, minLogSlotSize) {
		c.u64(&(*l)[i].Slot)
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
	c.b = Buffer{sizing: true}
	m.layout(c)
	c.b = Buffer{buf: make([]byte, 0, c.sigEnd), bounded: true}
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
	c.b = Buffer{sizing: true}
	m.layout(c)
	tc := c.ownTC
	c.release()
	return tc
}

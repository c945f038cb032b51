package wire

import (
	"encoding/binary"
	"fmt"
)

// ShardEnvelope carries one shard's frame between fleet processes: the
// fleet demultiplexer (internal/fleet) wraps every outbound frame of
// shard group s in an envelope so all shards of a replica pair share
// one transport connection instead of R×N sockets.
//
// Like TraceContext, the shard number rides OUTSIDE any signature
// coverage: the envelope itself is unsigned and the inner frame's
// signature does not cover the wrapping. Routing therefore must never
// be trusted for safety — a Byzantine (or corrupted) sender can relabel
// a frame to any shard. Safety holds anyway because every shard signs
// and verifies under a shard-specific domain (crypto.ShardDomain): a
// relabeled frame fails the check made under the shard it names, where
// it lands, and is dropped and counted, never executed. The only
// unsigned traffic, heartbeats, is benign to misroute: all shards of a
// process colocate, so process liveness is shared truth across shards.
//
// On the wire the inner message is a length-prefixed frame; decoding an
// envelope decodes that frame too, so a receiver opens it once.
type ShardEnvelope struct {
	// Shard is the target shard group.
	Shard uint32
	// Inner is the shard's message. It is never itself an envelope.
	Inner Message
}

var _ Message = (*ShardEnvelope)(nil)

// envelopeHeader is the offset of an envelope frame's inner frame: the
// envelope's type tag, the shard and the inner frame's length.
const envelopeHeader = 1 + 4 + 4

// Kind implements Message.
func (*ShardEnvelope) Kind() Type { return TypeShardEnvelope }

// layout is written by hand: the inner frame's length is patched in
// once it is written, and a decoded inner frame must fill that length
// exactly and never be another envelope.
func (m *ShardEnvelope) layout(c *codec) {
	c.u32(&m.Shard)
	if !c.dec {
		at := len(c.b.buf)
		c.b.PutUint32(0) // the inner frame's length, filled in below
		c.frame(m.Inner)
		if !c.b.sizing {
			binary.BigEndian.PutUint32(c.b.buf[at:], uint32(len(c.b.buf)-at-4))
		}
		return
	}
	if c.err != nil {
		return
	}
	n, err := c.r.sliceLen(1)
	switch {
	case err != nil:
		c.err = err
	case n == 0:
		c.err = fmt.Errorf("wire: empty shard-envelope frame")
	case Type(c.r.buf[c.r.off]) == TypeShardEnvelope:
		c.err = fmt.Errorf("wire: nested shard envelope")
	}
	if c.err != nil {
		return
	}
	// The inner frame is read in place, with the reader cut off where it
	// ends: it must fill its length exactly, like a frame of its own.
	full := c.r.buf
	c.r.buf = full[:c.r.off+n]
	m.Inner = c.message()
	trailing := c.r.Remaining()
	c.r.buf = full
	if c.err == nil && trailing != 0 {
		c.err = fmt.Errorf("wire: %d trailing bytes after enveloped %s", trailing, m.Inner.Kind())
	}
}

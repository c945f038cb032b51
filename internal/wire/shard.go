package wire

import "fmt"

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

// layout rejects an inner frame that is itself an envelope before
// decoding it.
func (m *ShardEnvelope) layout(c *Codec) {
	c.U32(&m.Shard)
	if c.dec && c.err == nil && c.r.Remaining() > 4 && Type(c.r.buf[c.r.off+4]) == TypeShardEnvelope {
		c.fail(fmt.Errorf("wire: nested shard envelope"))
	}
	c.Frame(&m.Inner)
}

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

func (m *ShardEnvelope) encodeBody(b *Buffer) {
	b.PutUint32(m.Shard)
	at := len(b.buf)
	b.PutUint32(0) // the inner frame's length, filled in below
	b.PutUint8(uint8(m.Inner.Kind()))
	m.Inner.encodeBody(b)
	if !b.sizing {
		binary.BigEndian.PutUint32(b.buf[at:], uint32(len(b.buf)-at-4))
	}
}

func (m *ShardEnvelope) decodeBody(r *Reader) error {
	var err error
	if m.Shard, err = r.Uint32(); err != nil {
		return err
	}
	n, err := r.sliceLen(1)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("wire: empty shard-envelope frame")
	}
	if Type(r.buf[r.off]) == TypeShardEnvelope {
		return fmt.Errorf("wire: nested shard envelope")
	}
	// The inner frame is read in place, with the reader cut off where it
	// ends: it must fill its length exactly, like a frame of its own.
	full := r.buf
	r.buf = r.buf[:r.off+n]
	m.Inner, err = r.message()
	trailing := r.Remaining()
	r.buf = full
	if err != nil {
		return err
	}
	if trailing != 0 {
		return fmt.Errorf("wire: %d trailing bytes after enveloped %s", trailing, m.Inner.Kind())
	}
	return nil
}

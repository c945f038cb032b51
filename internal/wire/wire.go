// Package wire defines every message exchanged by the protocols in this
// repository and a canonical binary codec for them.
//
// The codec is deliberately hand-rolled rather than gob- or
// JSON-based: signatures are computed over the canonical encoding, so
// encoding must be deterministic and stable across processes. All
// integers are encoded big-endian with fixed width; slices are
// length-prefixed with uint32. Each message describes its format once,
// in a layout method that encoding, SigBytes and decoding all run (see
// Codec). The replicas' durable formats — WAL records, snapshots,
// checkpoints — are described the same way, by layouts that NewEncoder
// and NewDecoder run.
//
// No message encode grows its buffer step by step. Encode, AppendEncode
// and EncodePooled write into the room their destination has; a frame
// that does not fit is counted to its end (buffer's sizing mode, which
// counts instead of appending) and written again into one allocation
// of exactly the size needed. SigBytes sizes its bytes first the same
// way. Each encode therefore makes at most one allocation, of exactly
// the frame's length — none when the destination has room — however
// large the message (a whole-log VIEW-CHANGE included).
//
// Message kinds:
//
//   - Heartbeat: the paper's §II assumption that every process sends
//     infinitely many messages; the failure detector issues standing
//     expectations for heartbeats to detect crash and repeated
//     omission failures.
//   - Update: the signed suspicion-row broadcast of Algorithm 1.
//   - Followers: the FOLLOWERS message of Algorithm 2.
//   - Request/Prepare/Commit/Reply/ViewChange/NewView: XPaxos (§V).
//   - Batch: a frame of client requests moved together by the replica
//     host's ingress (leader forwarding).
//   - PrePrepare/PBFTPrepare/PBFTCommit: the PBFT-style broadcast-all
//     baseline used for the §I message-reduction claim.
//   - CommitCert/ShardEnvelope: XPaxos commit certificates and the
//     fleet's per-shard routing frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"quorumselect/internal/ids"
)

// Type identifies a message kind on the wire.
type Type uint8

// Message kinds. Values are part of the wire format; do not reorder.
const (
	TypeHeartbeat Type = iota + 1
	TypeUpdate
	TypeFollowers
	TypeRequest
	TypePrepare
	TypeCommit
	TypeReply
	TypeViewChange
	TypeNewView
	TypePrePrepare
	TypePBFTPrepare
	TypePBFTCommit
	_ // 13, 14: reserved — once the ChainForward/ChainAck frames of a
	_ // removed bchain baseline; never reuse them.
	_ // 15–18: reserved — once the TM-PROPOSAL, TM-PREVOTE,
	_ // TM-PRECOMMIT and TM-DECIDED frames of a removed
	_ // Tendermint-style engine; never reuse them.
	_
	TypeCommitCert
	TypeBatch
	TypeShardEnvelope

	// NumTypes is one past the highest Type value: the size of a table
	// indexed by Type (slot 0 is unused).
	NumTypes = int(iota) + 1
)

// kinds names every message type and makes an empty message of it for
// a decode to fill.
var kinds = [NumTypes]struct {
	name  string
	alloc func() Message
}{
	TypeHeartbeat:     {"HEARTBEAT", func() Message { return new(Heartbeat) }},
	TypeUpdate:        {"UPDATE", func() Message { return new(Update) }},
	TypeFollowers:     {"FOLLOWERS", func() Message { return new(Followers) }},
	TypeRequest:       {"REQUEST", func() Message { return new(Request) }},
	TypePrepare:       {"PREPARE", func() Message { return new(Prepare) }},
	TypeCommit:        {"COMMIT", func() Message { return new(Commit) }},
	TypeReply:         {"REPLY", func() Message { return new(Reply) }},
	TypeViewChange:    {"VIEW-CHANGE", func() Message { return new(ViewChange) }},
	TypeNewView:       {"NEW-VIEW", func() Message { return new(NewView) }},
	TypePrePrepare:    {"PRE-PREPARE", func() Message { return new(PrePrepare) }},
	TypePBFTPrepare:   {"PBFT-PREPARE", func() Message { return new(PBFTPrepare) }},
	TypePBFTCommit:    {"PBFT-COMMIT", func() Message { return new(PBFTCommit) }},
	TypeCommitCert:    {"COMMIT-CERT", func() Message { return new(CommitCert) }},
	TypeBatch:         {"BATCH", func() Message { return new(Batch) }},
	TypeShardEnvelope: {"SHARD-ENVELOPE", func() Message { return new(ShardEnvelope) }},
}

// String returns the protocol name of the message type.
func (t Type) String() string {
	if int(t) < NumTypes && kinds[t].name != "" {
		return kinds[t].name
	}
	return fmt.Sprintf("TYPE(%d)", uint8(t))
}

// newMessage returns an empty message of type t, or nil for an unknown
// or reserved type.
func newMessage(t Type) Message {
	if int(t) < NumTypes && kinds[t].alloc != nil {
		return kinds[t].alloc()
	}
	return nil
}

// Message is implemented by every wire message.
type Message interface {
	// Kind returns the message's wire type.
	Kind() Type
	// layout lists the message's fields to c in wire order (see codec),
	// which encodes, sizes or decodes them.
	layout(c *Codec)
}

// Signed is implemented by messages that carry a content signature
// (as opposed to link-level authentication). The signature field is
// reached through Signing.
type Signed interface {
	Message
	// Signer returns the process whose key must verify the signature.
	Signer() ids.ProcessID
	// SigBytes returns the canonical bytes covered by the signature.
	SigBytes() []byte
}

// ErrTruncated is returned when a decode runs out of bytes.
var ErrTruncated = errors.New("wire: truncated message")

// TraceContext is the compact causal-tracing context piggybacked on
// protocol frames: the trace the frame belongs to and the span on the
// sending process that caused it. The zero value means "untraced".
//
// Trace bytes ride outside every message's signature coverage
// (appended after the Sig field), so no protocol decision may ever
// depend on them: a mutated or stripped context degrades tracing, never
// correctness, and re-signing is not needed to restamp a context. The
// exception is unavoidable by construction: a Prepare embedded whole
// inside another signed message (Commit, view-change logs) contributes
// its context bytes to the *outer* signature like any other embedded
// field.
type TraceContext struct {
	Trace uint64 // trace identifier (the root span's ID); 0 = untraced
	Span  uint64 // parent span on the sending process
}

// Zero reports whether the context is the untraced zero value.
func (tc TraceContext) Zero() bool { return tc.Trace == 0 && tc.Span == 0 }

// ErrUnknownType is returned when a decode meets an unknown type tag.
var ErrUnknownType = errors.New("wire: unknown message type")

// maxSliceLen bounds the slice lengths a network frame may declare;
// together with the bytes-remaining check in Codec.count it keeps a
// malicious peer from forcing an allocation larger than the frame it
// actually sent. Local durable bytes (NewDecoder) have only the second
// check.
const maxSliceLen = 1 << 20

// Encode renders m as canonical bytes: a one-byte type tag followed by
// the body encoding. It makes one allocation, exactly the frame's
// length (len == cap).
func Encode(m Message) []byte {
	return AppendEncode(nil, m)
}

// AppendEncode appends m's canonical encoding to dst and returns the
// extended slice. It writes into dst's spare capacity; if the frame
// does not fit, the pass turns into a sizing pass at the first byte
// that does not, and the frame is written again into a copy of dst
// grown to exactly the length needed. So a dst with room is filled in
// place without allocating, and any other grows once.
func AppendEncode(dst []byte, m Message) []byte {
	c := newCodec()
	c.b = buffer{buf: dst, bounded: true, start: len(dst)}
	c.frame(m)
	if c.b.sizing {
		c.b.sized(dst)
		c.frame(m)
	}
	dst = c.b.buf
	c.release()
	return dst
}

// framePool recycles encode buffers across the hot send paths
// (simulator deliveries, transport frames). Buffers keep their capacity
// across cycles; one too small for a frame is dropped for the exactly
// sized one that replaces it, so the pool settles on buffers that fit
// the frames it serves.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// EncodePooled is Encode drawing its buffer from a process-wide pool:
// the pooled buffer that comes up if the frame fits it, else one
// exactly sized allocation. The returned slice must be handed back with
// Recycle once no live reference to its bytes remains; decoded messages
// never alias the input (the codec copies every byte field), so
// recycling right after Decode is safe — the signed bytes Open
// returns excepted.
func EncodePooled(m Message) []byte {
	return AppendEncode((*framePool.Get().(*[]byte))[:0], m)
}

// Recycle returns a buffer obtained from EncodePooled to the pool.
// Passing any other slice is also safe: it simply donates the backing
// array.
func Recycle(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	framePool.Put(&buf)
}

// Decode parses canonical bytes into a fresh message value.
func Decode(data []byte) (Message, error) {
	m, _, _, err := Open(data)
	return m, err
}

// Open is Decode for a frame about to be authenticated. It also returns
// the bytes covered by the signature of the message the frame carries —
// the message itself, or a ShardEnvelope's inner message — as they
// arrived, and that signature, read on the way; both are nil when that
// message is unsigned. The codec is canonical, so the signed bytes equal
// that message's SigBytes() and a receiver checks the signature from
// Open's results alone, re-encoding nothing. Unlike the decoded message
// they alias data: they are valid only as long as data is.
func Open(data []byte) (m Message, signed, sig []byte, err error) {
	c := newCodec()
	c.dec, c.r = true, reader{buf: data}
	m = c.message()
	if c.err == nil && c.r.Remaining() != 0 {
		c.err = fmt.Errorf("wire: %d trailing bytes after %s", c.r.Remaining(), m.Kind())
	}
	if err = c.err; err != nil {
		m = nil
	} else {
		carried, start := m, 1 // the signed bytes begin after the type tag
		if env, ok := m.(*ShardEnvelope); ok {
			carried, start = env.Inner, envelopeHeader+1
		}
		if _, ok := carried.(Signed); ok {
			signed, sig = data[start:c.sigEnd:c.sigEnd], *c.ownSig
		}
	}
	c.release()
	return m, signed, sig, err
}

// buffer is an append-only canonical encoder. In sizing mode
// (buffer{sizing: true}) every Put counts the bytes it would append
// instead of appending them, which is how an encode learns its exact
// size before it allocates. The codec appends only through the Put
// methods and extend, so the count cannot miss a byte
// (TestAppendEncodeSizesExactly checks every kind).
type buffer struct {
	buf []byte
	// bounded confines the encoder to cap(buf): the first Put that does
	// not fit switches it to sizing mode, counting the frame from start
	// (see counts).
	bounded bool
	start   int
	sizing  bool
	n       int // bytes counted in sizing mode
}

// sized ends the sizing pass: b becomes an encoder appending to dst,
// grown first — in one allocation, if at all — to hold exactly the
// number of bytes the pass counted.
func (b *buffer) sized(dst []byte) {
	if cap(dst)-len(dst) < b.n {
		grown := make([]byte, len(dst), len(dst)+b.n)
		copy(grown, dst)
		dst = grown
	}
	*b = buffer{buf: dst}
}

// counts reports whether the n bytes of a Put are counted (sizing mode)
// rather than appended. A bounded encoder without room for them enters
// sizing mode here, counting the bytes its frame holds so far.
func (b *buffer) counts(n int) bool {
	if b.bounded && !b.sizing && cap(b.buf)-len(b.buf) < n {
		b.sizing, b.n = true, len(b.buf)-b.start
	}
	if b.sizing {
		b.n += n
		return true
	}
	return false
}

// extend grows the encoding by n bytes and returns them for the caller
// to fill; in sizing mode it counts them and returns nil.
func (b *buffer) extend(n int) []byte {
	if b.counts(n) {
		return nil
	}
	l := len(b.buf)
	if cap(b.buf)-l < n {
		b.buf = append(b.buf, make([]byte, n)...)
	} else {
		b.buf = b.buf[:l+n]
	}
	return b.buf[l:]
}

// PutUint8 appends a single byte.
func (b *buffer) PutUint8(v uint8) {
	if b.counts(1) {
		return
	}
	b.buf = append(b.buf, v)
}

// PutUint32 appends a big-endian uint32. Like every Put it extends
// b.buf in place, which stores only the length unless the slice grows:
// storing a returned slice would cost a GC write barrier per field in a
// heap-resident buffer, such as the pooled codec's.
func (b *buffer) PutUint32(v uint32) {
	if b.counts(4) {
		return
	}
	b.buf = append(b.buf, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b.buf[len(b.buf)-4:], v)
}

// PutUint64 appends a big-endian uint64.
func (b *buffer) PutUint64(v uint64) {
	if b.counts(8) {
		return
	}
	b.buf = append(b.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint64(b.buf[len(b.buf)-8:], v)
}

// reader is a decode's input and how far the codec has read it.
type reader struct {
	buf []byte
	off int
	// local marks local durable bytes (see NewDecoder), whose counts
	// are not capped at maxSliceLen.
	local bool
}

// Remaining returns the number of unread bytes.
func (r *reader) Remaining() int { return len(r.buf) - r.off }

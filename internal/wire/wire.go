// Package wire defines every message exchanged by the protocols in this
// repository and a canonical binary codec for them.
//
// The codec is deliberately hand-rolled rather than gob- or
// JSON-based: signatures are computed over the canonical encoding, so
// encoding must be deterministic and stable across processes. All
// integers are encoded big-endian with fixed width; slices are
// length-prefixed with uint32.
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
//     host's ingress (leader forwarding, mempool gossip).
//   - PrePrepare/PBFTPrepare/PBFTCommit: the PBFT-style broadcast-all
//     baseline used for the §I message-reduction claim.
//   - TMProposal/TMPrevote/TMPrecommit/TMDecided: the Tendermint-style
//     consensus integration.
//   - CommitCert/ShardEnvelope: XPaxos commit certificates and the
//     fleet's per-shard routing frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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
	TypeTMProposal
	TypeTMPrevote
	TypeTMPrecommit
	TypeTMDecided
	TypeCommitCert
	TypeBatch
	TypeShardEnvelope

	// NumTypes is one past the highest Type value: the size of a table
	// indexed by Type (slot 0 is unused).
	NumTypes = int(iota) + 1
)

// String returns the protocol name of the message type.
func (t Type) String() string {
	switch t {
	case TypeHeartbeat:
		return "HEARTBEAT"
	case TypeUpdate:
		return "UPDATE"
	case TypeFollowers:
		return "FOLLOWERS"
	case TypeRequest:
		return "REQUEST"
	case TypePrepare:
		return "PREPARE"
	case TypeCommit:
		return "COMMIT"
	case TypeReply:
		return "REPLY"
	case TypeViewChange:
		return "VIEW-CHANGE"
	case TypeNewView:
		return "NEW-VIEW"
	case TypePrePrepare:
		return "PRE-PREPARE"
	case TypePBFTPrepare:
		return "PBFT-PREPARE"
	case TypePBFTCommit:
		return "PBFT-COMMIT"
	case TypeTMProposal:
		return "TM-PROPOSAL"
	case TypeTMPrevote:
		return "TM-PREVOTE"
	case TypeTMPrecommit:
		return "TM-PRECOMMIT"
	case TypeTMDecided:
		return "TM-DECIDED"
	case TypeCommitCert:
		return "COMMIT-CERT"
	case TypeBatch:
		return "BATCH"
	case TypeShardEnvelope:
		return "SHARD-ENVELOPE"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Message is implemented by every wire message.
type Message interface {
	// Kind returns the message's wire type.
	Kind() Type
	// encodeBody appends the canonical encoding of all fields
	// (including any signature) to b.
	encodeBody(b *Buffer)
	// decodeBody parses the canonical encoding from b.
	decodeBody(b *Reader) error
}

// Signed is implemented by messages that carry a content signature
// (as opposed to link-level authentication).
type Signed interface {
	Message
	// Signer returns the process whose key must verify the signature.
	Signer() ids.ProcessID
	// SigBytes returns the canonical bytes covered by the signature.
	SigBytes() []byte
	// Signature returns the attached signature.
	Signature() []byte
	// SetSignature attaches a signature.
	SetSignature(sig []byte)
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

// TraceCarrier is implemented by messages that piggyback a
// TraceContext.
type TraceCarrier interface {
	Message
	// TraceCtx returns the piggybacked context.
	TraceCtx() TraceContext
	// SetTraceCtx replaces the piggybacked context. For bare signed
	// frames this never invalidates the signature (the context is
	// outside SigBytes).
	SetTraceCtx(tc TraceContext)
}

// ErrUnknownType is returned when a decode meets an unknown type tag.
var ErrUnknownType = errors.New("wire: unknown message type")

// maxSliceLen bounds decoded slice lengths; together with the
// bytes-remaining check in Reader.sliceLen it keeps a malicious peer from
// forcing an allocation larger than the frame it actually sent.
const maxSliceLen = 1 << 20

// Encode renders m as canonical bytes: a one-byte type tag followed by
// the body encoding.
func Encode(m Message) []byte {
	return AppendEncode(nil, m)
}

// AppendEncode appends m's canonical encoding to dst and returns the
// extended slice — the allocation-free form of Encode for callers that
// manage their own buffers.
func AppendEncode(dst []byte, m Message) []byte {
	b := Buffer{buf: dst}
	b.PutUint8(uint8(m.Kind()))
	m.encodeBody(&b)
	return b.buf
}

// framePool recycles encode buffers across the hot send paths
// (simulator deliveries, transport frames). Buffers grow to fit and
// keep their capacity across cycles.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// EncodePooled is Encode drawing its buffer from a process-wide pool.
// The returned slice must be handed back with Recycle once no live
// reference to its bytes remains; decoded messages never alias the
// input (the Reader copies every byte field), so recycling right after
// Decode is safe — the signed bytes DecodeSigned returns excepted.
func EncodePooled(m Message) []byte {
	bp := framePool.Get().(*[]byte)
	return AppendEncode((*bp)[:0], m)
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
	m, _, err := DecodeSigned(data)
	return m, err
}

// DecodeSigned is Decode for a frame about to be authenticated: it also
// returns the bytes covered by the signature of the message the frame
// carries — the message itself, or a ShardEnvelope's inner message — as
// they arrived, or nil when that message is unsigned. The codec is
// canonical, so they equal that message's SigBytes() and a receiver
// checks the signature without re-encoding anything. Unlike the decoded
// message they alias data: they are valid only as long as data is.
func DecodeSigned(data []byte) (Message, []byte, error) {
	r := &Reader{buf: data}
	m, err := r.message()
	if err != nil {
		return nil, nil, err
	}
	if r.Remaining() != 0 {
		return nil, nil, fmt.Errorf("wire: %d trailing bytes after %s", r.Remaining(), m.Kind())
	}
	signed, start := m, 1 // the signed bytes begin after the type tag
	if env, ok := m.(*ShardEnvelope); ok {
		signed, start = env.Inner, envelopeHeader+1
	}
	if _, ok := signed.(Signed); !ok {
		return m, nil, nil
	}
	return m, data[start:r.sigEnd:r.sigEnd], nil
}

// message reads one frame: its type tag, then the body.
func (r *Reader) message() (Message, error) {
	tag, err := r.Uint8()
	if err != nil {
		return nil, err
	}
	m := newMessage(Type(tag))
	if m == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, tag)
	}
	if err := m.decodeBody(r); err != nil {
		return nil, err
	}
	return m, nil
}

func newMessage(t Type) Message {
	switch t {
	case TypeHeartbeat:
		return &Heartbeat{}
	case TypeUpdate:
		return &Update{}
	case TypeFollowers:
		return &Followers{}
	case TypeRequest:
		return &Request{}
	case TypePrepare:
		return &Prepare{}
	case TypeCommit:
		return &Commit{}
	case TypeReply:
		return &Reply{}
	case TypeViewChange:
		return &ViewChange{}
	case TypeNewView:
		return &NewView{}
	case TypePrePrepare:
		return &PrePrepare{}
	case TypePBFTPrepare:
		return &PBFTPrepare{}
	case TypePBFTCommit:
		return &PBFTCommit{}
	case TypeTMProposal:
		return &TMProposal{}
	case TypeTMPrevote:
		return &TMPrevote{}
	case TypeTMPrecommit:
		return &TMPrecommit{}
	case TypeTMDecided:
		return &TMDecided{}
	case TypeCommitCert:
		return &CommitCert{}
	case TypeBatch:
		return &Batch{}
	case TypeShardEnvelope:
		return &ShardEnvelope{}
	default:
		return nil
	}
}

// Buffer is an append-only canonical encoder. In sizing mode (see
// sizer) every Put counts the bytes it would append instead of
// appending them, which is how SigBytes learns its exact size before it
// allocates.
type Buffer struct {
	buf    []byte
	sizing bool
	n      int // bytes counted in sizing mode
}

// sizer puts b in sizing mode and returns it.
func (b *Buffer) sizer() *Buffer {
	*b = Buffer{sizing: true}
	return b
}

// sized ends the sizing pass: b becomes an empty encoder whose capacity
// is exactly the number of bytes the pass counted.
func (b *Buffer) sized() *Buffer {
	*b = Buffer{buf: make([]byte, 0, b.n)}
	return b
}

// Bytes returns the accumulated encoding.
func (b *Buffer) Bytes() []byte { return b.buf }

// extend grows the encoding by n bytes and returns them for the caller
// to fill; in sizing mode it counts them and returns nil.
func (b *Buffer) extend(n int) []byte {
	if b.sizing {
		b.n += n
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
func (b *Buffer) PutUint8(v uint8) {
	if b.sizing {
		b.n++
		return
	}
	b.buf = append(b.buf, v)
}

// PutUint32 appends a big-endian uint32.
func (b *Buffer) PutUint32(v uint32) {
	if b.sizing {
		b.n += 4
		return
	}
	b.buf = binary.BigEndian.AppendUint32(b.buf, v)
}

// PutUint64 appends a big-endian uint64.
func (b *Buffer) PutUint64(v uint64) {
	if b.sizing {
		b.n += 8
		return
	}
	b.buf = binary.BigEndian.AppendUint64(b.buf, v)
}

// PutBool appends a boolean as one byte.
func (b *Buffer) PutBool(v bool) {
	if v {
		b.PutUint8(1)
	} else {
		b.PutUint8(0)
	}
}

// PutProc appends a process identifier.
func (b *Buffer) PutProc(p ids.ProcessID) { b.PutUint32(uint32(p)) }

// PutBytes appends a length-prefixed byte slice.
func (b *Buffer) PutBytes(v []byte) {
	b.PutUint32(uint32(len(v)))
	copy(b.extend(len(v)), v)
}

// PutProcs appends a length-prefixed slice of process identifiers.
func (b *Buffer) PutProcs(ps []ids.ProcessID) {
	b.PutUint32(uint32(len(ps)))
	if dst := b.extend(4 * len(ps)); dst != nil {
		for i, p := range ps {
			binary.BigEndian.PutUint32(dst[4*i:], uint32(p))
		}
	}
}

// PutUint64s appends a length-prefixed slice of uint64.
func (b *Buffer) PutUint64s(vs []uint64) {
	b.PutUint32(uint32(len(vs)))
	if dst := b.extend(8 * len(vs)); dst != nil {
		for i, v := range vs {
			binary.BigEndian.PutUint64(dst[8*i:], v)
		}
	}
}

// PutUvarint appends an unsigned varint (LEB128, as produced by
// encoding/binary). The encoding is minimal by construction, matching
// the Reader's canonicity requirement.
func (b *Buffer) PutUvarint(v uint64) {
	if b.sizing {
		b.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	b.buf = binary.AppendUvarint(b.buf, v)
}

// PutTraceContext appends a trace context as two uvarints. The common
// untraced case costs two bytes.
func (b *Buffer) PutTraceContext(tc TraceContext) {
	b.PutUvarint(tc.Trace)
	b.PutUvarint(tc.Span)
}

// Reader decodes canonical bytes with bounds checking.
type Reader struct {
	buf []byte
	off int
	// sigEnd is where the signed bytes of the last signature read end
	// (see sig): for a signed message, the end of its SigBytes range.
	sigEnd int
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) ([]byte, error) {
	if n < 0 || r.Remaining() < n {
		return nil, ErrTruncated
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out, nil
}

// Uint8 reads one byte.
func (r *Reader) Uint8() (uint8, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// Bool reads a boolean byte, rejecting values other than 0 and 1.
func (r *Reader) Bool() (bool, error) {
	v, err := r.Uint8()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("wire: invalid bool byte %d", v)
	}
}

// Tag reads the inner type tag of a signed body and rejects anything
// but want: accepting non-canonical encodings would let one message
// re-encode differently than it arrived.
func (r *Reader) Tag(want Type) error {
	v, err := r.Uint8()
	if err != nil {
		return err
	}
	if Type(v) != want {
		return fmt.Errorf("wire: inner tag %d, want %s", v, want)
	}
	return nil
}

// Proc reads a process identifier.
func (r *Reader) Proc() (ids.ProcessID, error) {
	v, err := r.Uint32()
	return ids.ProcessID(v), err
}

// sliceLen reads a uint32 element count for a slice whose elements each
// occupy at least elemSize encoded bytes. It rejects counts above
// maxSliceLen and — before the caller allocates anything — counts the
// remaining bytes could not hold, so a short hostile frame claiming a
// huge slice costs an error, not memory.
func (r *Reader) sliceLen(elemSize int) (int, error) {
	n, err := r.Uint32()
	if err != nil {
		return 0, err
	}
	if n > maxSliceLen {
		return 0, fmt.Errorf("wire: slice length %d exceeds limit", n)
	}
	if int(n)*elemSize > r.Remaining() {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// Bytes reads a length-prefixed byte slice (copied out of the buffer).
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.sliceLen(1)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out, nil
}

// sig reads a signed message's Sig field, which follows the bytes the
// signature covers, and marks where those end. A message embedding
// another reads its own Sig last, so after a whole frame the mark is
// the outermost message's.
func (r *Reader) sig() ([]byte, error) {
	r.sigEnd = r.off
	return r.Bytes()
}

// Procs reads a length-prefixed slice of process identifiers.
func (r *Reader) Procs() ([]ids.ProcessID, error) {
	n, err := r.sliceLen(4)
	if err != nil {
		return nil, err
	}
	out := make([]ids.ProcessID, n)
	raw := r.buf[r.off : r.off+4*n]
	for i := range out {
		out[i] = ids.ProcessID(binary.BigEndian.Uint32(raw[4*i:]))
	}
	r.off += 4 * n
	return out, nil
}

// Uvarint reads an unsigned varint, rejecting non-minimal encodings
// (a final continuation group of zero, e.g. 0x80 0x00 for 0) and
// 64-bit overflow: accepting either would let one value arrive in more
// than one byte form, breaking the codec's canonicity invariant.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n == 0 {
		return 0, ErrTruncated
	}
	if n < 0 {
		return 0, fmt.Errorf("wire: uvarint overflows 64 bits")
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		return 0, fmt.Errorf("wire: non-minimal uvarint encoding")
	}
	r.off += n
	return v, nil
}

// TraceContext reads a trace context (two uvarints).
func (r *Reader) TraceContext() (TraceContext, error) {
	var tc TraceContext
	var err error
	if tc.Trace, err = r.Uvarint(); err != nil {
		return tc, err
	}
	tc.Span, err = r.Uvarint()
	return tc, err
}

// Uint64s reads a length-prefixed slice of uint64.
func (r *Reader) Uint64s() ([]uint64, error) {
	n, err := r.sliceLen(8)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	raw := r.buf[r.off : r.off+8*n]
	for i := range out {
		out[i] = binary.BigEndian.Uint64(raw[8*i:])
	}
	r.off += 8 * n
	return out, nil
}

package wire

import (
	"fmt"

	"quorumselect/internal/ids"
)

// Compile-time interface checks.
var (
	_ Message = (*Heartbeat)(nil)
	_ Signed  = (*Update)(nil)
	_ Signed  = (*Followers)(nil)
	_ Message = (*Request)(nil)
	_ Message = (*Batch)(nil)
	_ Signed  = (*Prepare)(nil)
	_ Signed  = (*Commit)(nil)
	_ Signed  = (*Reply)(nil)
	_ Signed  = (*ViewChange)(nil)
	_ Signed  = (*NewView)(nil)
	_ Signed  = (*PrePrepare)(nil)
	_ Signed  = (*PBFTPrepare)(nil)
	_ Signed  = (*PBFTCommit)(nil)

	_ TraceCarrier = (*Batch)(nil)
	_ TraceCarrier = (*Prepare)(nil)
	_ TraceCarrier = (*Commit)(nil)
	_ TraceCarrier = (*ViewChange)(nil)
	_ TraceCarrier = (*NewView)(nil)
)

// Smallest encodings of the elements decoded into slices (every
// variable-length field empty, untraced): what Reader.sliceLen multiplies an
// element count by before anything is allocated.
const (
	minEdgeSize      = 4 + 4
	minRequestSize   = 8 + 8 + 4
	minPrepareSize   = 1 + 4 + 8 + 8 + minRequestSize + 4 + 4 + 2
	minCommitSize    = 1 + 4 + 8 + 8 + 1 + 4 + 2
	minLogSlotSize   = 8 + minPrepareSize
	minPhaseBodySize = 1 + 4 + 8 + 8 + 4 + 4
)

// Heartbeat is the periodic liveness message every process sends (§II:
// "every process is expected to send infinitely many messages").
// Heartbeats are link-authenticated only; they carry no signature.
type Heartbeat struct {
	From ids.ProcessID // sending process
	Seq  uint64        // monotonically increasing per sender
}

// Kind implements Message.
func (*Heartbeat) Kind() Type { return TypeHeartbeat }

func (m *Heartbeat) encodeBody(b *Buffer) {
	b.PutProc(m.From)
	b.PutUint64(m.Seq)
}

func (m *Heartbeat) decodeBody(r *Reader) error {
	var err error
	if m.From, err = r.Proc(); err != nil {
		return err
	}
	m.Seq, err = r.Uint64()
	return err
}

// Update is Algorithm 1's ⟨UPDATE, suspected[i]⟩_σi message: the signed
// suspicion row of its Owner. Row[k] is the epoch in which Owner last
// suspected process p_{k+1} (0 = never). Updates are forwarded verbatim
// by other processes, so the transport-level sender may differ from
// Owner; verification always uses Owner's key.
type Update struct {
	Owner ids.ProcessID
	Row   []uint64
	Sig   []byte
}

// Kind implements Message.
func (*Update) Kind() Type { return TypeUpdate }

func (m *Update) encodeBody(b *Buffer) {
	m.encodeSigned(b)
	b.PutBytes(m.Sig)
}

func (m *Update) encodeSigned(b *Buffer) {
	b.PutUint8(uint8(TypeUpdate))
	b.PutProc(m.Owner)
	b.PutUint64s(m.Row)
}

func (m *Update) decodeBody(r *Reader) error {
	if err := r.Tag(TypeUpdate); err != nil {
		return err
	}
	var err error
	if m.Owner, err = r.Proc(); err != nil {
		return err
	}
	if m.Row, err = r.Uint64s(); err != nil {
		return err
	}
	m.Sig, err = r.sig()
	return err
}

// Signer implements Signed.
func (m *Update) Signer() ids.ProcessID { return m.Owner }

// SigBytes implements Signed.
func (m *Update) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer())
	m.encodeSigned(b.sized())
	return b.buf
}

// Signature implements Signed.
func (m *Update) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *Update) SetSignature(sig []byte) { m.Sig = sig }

// Clone returns a deep copy, so stores can retain rows without aliasing
// buffers owned by the transport.
func (m *Update) Clone() *Update {
	cp := &Update{Owner: m.Owner}
	cp.Row = append([]uint64(nil), m.Row...)
	cp.Sig = append([]byte(nil), m.Sig...)
	return cp
}

// Edge is an undirected suspect-graph edge carried inside FOLLOWERS
// messages (the line subgraph L of Algorithm 2).
type Edge struct {
	U, V ids.ProcessID
}

// String renders the edge in paper notation.
func (e Edge) String() string { return fmt.Sprintf("(%s,%s)", e.U, e.V) }

// Followers is Algorithm 2's ⟨FOLLOWERS, Fw, L, epoch⟩_σj message: the
// leader's signed choice of q−1 followers, justified by the line
// subgraph L it computed.
type Followers struct {
	Leader    ids.ProcessID
	Epoch     uint64
	Followers []ids.ProcessID
	Line      []Edge
	Sig       []byte
}

// Kind implements Message.
func (*Followers) Kind() Type { return TypeFollowers }

func (m *Followers) encodeBody(b *Buffer) {
	m.encodeSigned(b)
	b.PutBytes(m.Sig)
}

func (m *Followers) encodeSigned(b *Buffer) {
	b.PutUint8(uint8(TypeFollowers))
	b.PutProc(m.Leader)
	b.PutUint64(m.Epoch)
	b.PutProcs(m.Followers)
	b.PutUint32(uint32(len(m.Line)))
	for _, e := range m.Line {
		b.PutProc(e.U)
		b.PutProc(e.V)
	}
}

func (m *Followers) decodeBody(r *Reader) error {
	if err := r.Tag(TypeFollowers); err != nil {
		return err
	}
	var err error
	if m.Leader, err = r.Proc(); err != nil {
		return err
	}
	if m.Epoch, err = r.Uint64(); err != nil {
		return err
	}
	if m.Followers, err = r.Procs(); err != nil {
		return err
	}
	n, err := r.sliceLen(minEdgeSize)
	if err != nil {
		return err
	}
	m.Line = make([]Edge, n)
	for i := range m.Line {
		if m.Line[i].U, err = r.Proc(); err != nil {
			return err
		}
		if m.Line[i].V, err = r.Proc(); err != nil {
			return err
		}
	}
	m.Sig, err = r.sig()
	return err
}

// Signer implements Signed.
func (m *Followers) Signer() ids.ProcessID { return m.Leader }

// SigBytes implements Signed.
func (m *Followers) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer())
	m.encodeSigned(b.sized())
	return b.buf
}

// Signature implements Signed.
func (m *Followers) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *Followers) SetSignature(sig []byte) { m.Sig = sig }

// Request is a client operation submitted to the replicated state
// machine. Clients are identified outside Π, so Client is a plain
// uint64 rather than a ProcessID.
type Request struct {
	Client uint64
	Seq    uint64
	Op     []byte
}

// Kind implements Message.
func (*Request) Kind() Type { return TypeRequest }

func (m *Request) encodeBody(b *Buffer) {
	b.PutUint64(m.Client)
	b.PutUint64(m.Seq)
	b.PutBytes(m.Op)
}

func (m *Request) decodeBody(r *Reader) error {
	var err error
	if m.Client, err = r.Uint64(); err != nil {
		return err
	}
	if m.Seq, err = r.Uint64(); err != nil {
		return err
	}
	m.Op, err = r.Bytes()
	return err
}

// Equal reports whether two requests are identical.
func (m *Request) Equal(o *Request) bool {
	return m.Client == o.Client && m.Seq == o.Seq && string(m.Op) == string(o.Op)
}

// Batch is a frame of client requests moved together: the replica
// host's ingress flushes one Batch instead of one frame per request
// (non-leader → leader forwarding in XPaxos, mempool gossip in the
// consensus engine). Requests are link-authenticated like individual
// Request frames; receivers deduplicate per request.
type Batch struct {
	Reqs []Request
	// TC is the sending host's ingress-span context, so a forwarded
	// batch stays part of the trace its buffering started.
	TC TraceContext
}

// Kind implements Message.
func (*Batch) Kind() Type { return TypeBatch }

func (m *Batch) encodeBody(b *Buffer) {
	b.PutUint32(uint32(len(m.Reqs)))
	for i := range m.Reqs {
		m.Reqs[i].encodeBody(b)
	}
	b.PutTraceContext(m.TC)
}

func (m *Batch) decodeBody(r *Reader) error {
	n, err := r.sliceLen(minRequestSize)
	if err != nil {
		return err
	}
	if n > 0 {
		m.Reqs = make([]Request, n)
		for i := range m.Reqs {
			if err := m.Reqs[i].decodeBody(r); err != nil {
				return err
			}
		}
	}
	m.TC, err = r.TraceContext()
	return err
}

// TraceCtx implements TraceCarrier.
func (m *Batch) TraceCtx() TraceContext { return m.TC }

// SetTraceCtx implements TraceCarrier.
func (m *Batch) SetTraceCtx(tc TraceContext) { m.TC = tc }

// Prepare is XPaxos's PREPARE: the leader proposes a slot's worth of
// client requests in a view (§V-A step 1). Req is the first request of
// the slot; Rest carries the remainder of the batch (empty at batch
// size 1, reproducing the paper's one-request-per-slot normal case).
// All requests of the slot commit atomically and execute in order.
type Prepare struct {
	Leader ids.ProcessID
	View   uint64
	Slot   uint64
	Req    Request
	Rest   []Request
	Sig    []byte
	// TC is the leader's propose-span context; followers parent their
	// accept spans on it. Outside SigBytes (see TraceContext), though a
	// Prepare embedded in a Commit or view-change log is covered whole
	// by the outer signature.
	TC TraceContext
}

// Kind implements Message.
func (*Prepare) Kind() Type { return TypePrepare }

func (m *Prepare) encodeBody(b *Buffer) {
	m.encodeSigned(b)
	b.PutBytes(m.Sig)
	b.PutTraceContext(m.TC)
}

func (m *Prepare) encodeSigned(b *Buffer) {
	b.PutUint8(uint8(TypePrepare))
	b.PutProc(m.Leader)
	b.PutUint64(m.View)
	b.PutUint64(m.Slot)
	m.Req.encodeBody(b)
	b.PutUint32(uint32(len(m.Rest)))
	for i := range m.Rest {
		m.Rest[i].encodeBody(b)
	}
}

func (m *Prepare) decodeBody(r *Reader) error {
	if err := r.Tag(TypePrepare); err != nil {
		return err
	}
	var err error
	if m.Leader, err = r.Proc(); err != nil {
		return err
	}
	if m.View, err = r.Uint64(); err != nil {
		return err
	}
	if m.Slot, err = r.Uint64(); err != nil {
		return err
	}
	if err = m.Req.decodeBody(r); err != nil {
		return err
	}
	n, err := r.sliceLen(minRequestSize)
	if err != nil {
		return err
	}
	if n > 0 {
		m.Rest = make([]Request, n)
		for i := range m.Rest {
			if err := m.Rest[i].decodeBody(r); err != nil {
				return err
			}
		}
	}
	if m.Sig, err = r.sig(); err != nil {
		return err
	}
	m.TC, err = r.TraceContext()
	return err
}

// TraceCtx implements TraceCarrier.
func (m *Prepare) TraceCtx() TraceContext { return m.TC }

// SetTraceCtx implements TraceCarrier.
func (m *Prepare) SetTraceCtx(tc TraceContext) { m.TC = tc }

// Requests returns the slot's full batch in proposal order (Req
// followed by Rest).
func (m *Prepare) Requests() []*Request {
	out := make([]*Request, 0, 1+len(m.Rest))
	out = append(out, &m.Req)
	for i := range m.Rest {
		out = append(out, &m.Rest[i])
	}
	return out
}

// Signer implements Signed.
func (m *Prepare) Signer() ids.ProcessID { return m.Leader }

// SigBytes implements Signed.
func (m *Prepare) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer())
	m.encodeSigned(b.sized())
	return b.buf
}

// Signature implements Signed.
func (m *Prepare) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *Prepare) SetSignature(sig []byte) { m.Sig = sig }

// Commit is XPaxos's COMMIT. Per the paper's second protocol change in
// §V-A, a COMMIT includes the full PREPARE message from the leader
// (not just a hash), so receivers can detect malformed COMMITs and
// leader equivocation. HasPrep distinguishes a COMMIT carrying a
// PREPARE from a maliciously empty one.
type Commit struct {
	Replica ids.ProcessID
	View    uint64
	Slot    uint64
	HasPrep bool
	Prep    Prepare
	Sig     []byte
	// TC is the sending replica's accept-span context, letting the
	// collector attribute commit arrivals to the remote accept.
	TC TraceContext
}

// Kind implements Message.
func (*Commit) Kind() Type { return TypeCommit }

func (m *Commit) encodeBody(b *Buffer) {
	m.encodeSigned(b)
	b.PutBytes(m.Sig)
	b.PutTraceContext(m.TC)
}

func (m *Commit) encodeSigned(b *Buffer) {
	b.PutUint8(uint8(TypeCommit))
	b.PutProc(m.Replica)
	b.PutUint64(m.View)
	b.PutUint64(m.Slot)
	b.PutBool(m.HasPrep)
	if m.HasPrep {
		m.Prep.encodeBody(b)
	}
}

func (m *Commit) decodeBody(r *Reader) error {
	if err := r.Tag(TypeCommit); err != nil {
		return err
	}
	var err error
	if m.Replica, err = r.Proc(); err != nil {
		return err
	}
	if m.View, err = r.Uint64(); err != nil {
		return err
	}
	if m.Slot, err = r.Uint64(); err != nil {
		return err
	}
	if m.HasPrep, err = r.Bool(); err != nil {
		return err
	}
	if m.HasPrep {
		if err = m.Prep.decodeBody(r); err != nil {
			return err
		}
	}
	if m.Sig, err = r.sig(); err != nil {
		return err
	}
	m.TC, err = r.TraceContext()
	return err
}

// TraceCtx implements TraceCarrier.
func (m *Commit) TraceCtx() TraceContext { return m.TC }

// SetTraceCtx implements TraceCarrier.
func (m *Commit) SetTraceCtx(tc TraceContext) { m.TC = tc }

// Signer implements Signed.
func (m *Commit) Signer() ids.ProcessID { return m.Replica }

// SigBytes implements Signed.
func (m *Commit) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer())
	m.encodeSigned(b.sized())
	return b.buf
}

// Signature implements Signed.
func (m *Commit) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *Commit) SetSignature(sig []byte) { m.Sig = sig }

// Reply is a replica's response to a client request — the client-bound
// leg of Fig 2. Clients live outside Π, so in-process harnesses observe
// executions through the OnExecute hook instead, and the TCP
// deployment's HTTP frontend completes requests from local execution
// (lazy replication keeps every replica current); Reply is the message
// a remote binary client protocol would use.
type Reply struct {
	Replica ids.ProcessID
	Client  uint64
	Seq     uint64
	Result  []byte
	Sig     []byte
}

// Kind implements Message.
func (*Reply) Kind() Type { return TypeReply }

func (m *Reply) encodeBody(b *Buffer) {
	m.encodeSigned(b)
	b.PutBytes(m.Sig)
}

func (m *Reply) encodeSigned(b *Buffer) {
	b.PutUint8(uint8(TypeReply))
	b.PutProc(m.Replica)
	b.PutUint64(m.Client)
	b.PutUint64(m.Seq)
	b.PutBytes(m.Result)
}

func (m *Reply) decodeBody(r *Reader) error {
	if err := r.Tag(TypeReply); err != nil {
		return err
	}
	var err error
	if m.Replica, err = r.Proc(); err != nil {
		return err
	}
	if m.Client, err = r.Uint64(); err != nil {
		return err
	}
	if m.Seq, err = r.Uint64(); err != nil {
		return err
	}
	if m.Result, err = r.Bytes(); err != nil {
		return err
	}
	m.Sig, err = r.sig()
	return err
}

// Signer implements Signed.
func (m *Reply) Signer() ids.ProcessID { return m.Replica }

// SigBytes implements Signed.
func (m *Reply) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer())
	m.encodeSigned(b.sized())
	return b.buf
}

// Signature implements Signed.
func (m *Reply) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *Reply) SetSignature(sig []byte) { m.Sig = sig }

// CommitCert is XPaxos's lazy-replication certificate: the full set of
// COMMIT messages that committed a slot. Each COMMIT embeds the
// PREPARE, so the certificate is self-certifying — a passive replica
// verifies the n−f signatures instead of trusting the sender. Not
// itself signed.
type CommitCert struct {
	Slot    uint64
	Commits []Commit
}

// Kind implements Message.
func (*CommitCert) Kind() Type { return TypeCommitCert }

func (m *CommitCert) encodeBody(b *Buffer) {
	b.PutUint64(m.Slot)
	b.PutUint32(uint32(len(m.Commits)))
	for i := range m.Commits {
		m.Commits[i].encodeBody(b)
	}
}

func (m *CommitCert) decodeBody(r *Reader) error {
	var err error
	if m.Slot, err = r.Uint64(); err != nil {
		return err
	}
	n, err := r.sliceLen(minCommitSize)
	if err != nil {
		return err
	}
	m.Commits = make([]Commit, n)
	for i := range m.Commits {
		if err = m.Commits[i].decodeBody(r); err != nil {
			return err
		}
	}
	return nil
}

// LogSlot is a prepared slot carried in view-change messages: the
// highest-view PREPARE a replica accepted for a slot.
type LogSlot struct {
	Slot uint64
	Prep Prepare
}

// ViewChange announces that a replica moves to (at least) view NewViewNum
// and reports its accepted log so the incoming leader can preserve
// committed requests. With checkpointing enabled it also reports the
// replica's latest stable checkpoint: the slot, the state-machine
// snapshot digest, and the snapshot itself (so the incoming leader can
// serve it to lagging members).
type ViewChange struct {
	Replica        ids.ProcessID
	NewViewNum     uint64
	CheckpointSlot uint64
	CheckpointDig  []byte
	Snapshot       []byte
	Log            []LogSlot
	Sig            []byte
	// TC is the sender's view-change-span context, so view-change
	// traffic joins the causal timeline like the normal case does.
	TC TraceContext
}

// Kind implements Message.
func (*ViewChange) Kind() Type { return TypeViewChange }

func (m *ViewChange) encodeBody(b *Buffer) {
	m.encodeSigned(b)
	b.PutBytes(m.Sig)
	b.PutTraceContext(m.TC)
}

func (m *ViewChange) encodeSigned(b *Buffer) {
	b.PutUint8(uint8(TypeViewChange))
	b.PutProc(m.Replica)
	b.PutUint64(m.NewViewNum)
	b.PutUint64(m.CheckpointSlot)
	b.PutBytes(m.CheckpointDig)
	b.PutBytes(m.Snapshot)
	b.PutUint32(uint32(len(m.Log)))
	for i := range m.Log {
		b.PutUint64(m.Log[i].Slot)
		m.Log[i].Prep.encodeBody(b)
	}
}

func (m *ViewChange) decodeBody(r *Reader) error {
	if err := r.Tag(TypeViewChange); err != nil {
		return err
	}
	var err error
	if m.Replica, err = r.Proc(); err != nil {
		return err
	}
	if m.NewViewNum, err = r.Uint64(); err != nil {
		return err
	}
	if m.CheckpointSlot, err = r.Uint64(); err != nil {
		return err
	}
	if m.CheckpointDig, err = r.Bytes(); err != nil {
		return err
	}
	if m.Snapshot, err = r.Bytes(); err != nil {
		return err
	}
	n, err := r.sliceLen(minLogSlotSize)
	if err != nil {
		return err
	}
	m.Log = make([]LogSlot, n)
	for i := range m.Log {
		if m.Log[i].Slot, err = r.Uint64(); err != nil {
			return err
		}
		if err = m.Log[i].Prep.decodeBody(r); err != nil {
			return err
		}
	}
	if m.Sig, err = r.sig(); err != nil {
		return err
	}
	m.TC, err = r.TraceContext()
	return err
}

// TraceCtx implements TraceCarrier.
func (m *ViewChange) TraceCtx() TraceContext { return m.TC }

// SetTraceCtx implements TraceCarrier.
func (m *ViewChange) SetTraceCtx(tc TraceContext) { m.TC = tc }

// Signer implements Signed.
func (m *ViewChange) Signer() ids.ProcessID { return m.Replica }

// SigBytes implements Signed.
func (m *ViewChange) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer())
	m.encodeSigned(b.sized())
	return b.buf
}

// Signature implements Signed.
func (m *ViewChange) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *ViewChange) SetSignature(sig []byte) { m.Sig = sig }

// NewView installs a view: the new leader's consolidated log, assembled
// from the VIEW-CHANGE messages of the new active quorum, plus the
// stable checkpoint (slot + snapshot) lagging members catch up from.
type NewView struct {
	Leader         ids.ProcessID
	ViewNum        uint64
	CheckpointSlot uint64
	Snapshot       []byte
	Log            []LogSlot
	Sig            []byte
	// TC is the incoming leader's view-change-span context; receivers
	// anchor the installation on it.
	TC TraceContext
}

// Kind implements Message.
func (*NewView) Kind() Type { return TypeNewView }

func (m *NewView) encodeBody(b *Buffer) {
	m.encodeSigned(b)
	b.PutBytes(m.Sig)
	b.PutTraceContext(m.TC)
}

func (m *NewView) encodeSigned(b *Buffer) {
	b.PutUint8(uint8(TypeNewView))
	b.PutProc(m.Leader)
	b.PutUint64(m.ViewNum)
	b.PutUint64(m.CheckpointSlot)
	b.PutBytes(m.Snapshot)
	b.PutUint32(uint32(len(m.Log)))
	for i := range m.Log {
		b.PutUint64(m.Log[i].Slot)
		m.Log[i].Prep.encodeBody(b)
	}
}

func (m *NewView) decodeBody(r *Reader) error {
	if err := r.Tag(TypeNewView); err != nil {
		return err
	}
	var err error
	if m.Leader, err = r.Proc(); err != nil {
		return err
	}
	if m.ViewNum, err = r.Uint64(); err != nil {
		return err
	}
	if m.CheckpointSlot, err = r.Uint64(); err != nil {
		return err
	}
	if m.Snapshot, err = r.Bytes(); err != nil {
		return err
	}
	n, err := r.sliceLen(minLogSlotSize)
	if err != nil {
		return err
	}
	m.Log = make([]LogSlot, n)
	for i := range m.Log {
		if m.Log[i].Slot, err = r.Uint64(); err != nil {
			return err
		}
		if err = m.Log[i].Prep.decodeBody(r); err != nil {
			return err
		}
	}
	if m.Sig, err = r.sig(); err != nil {
		return err
	}
	m.TC, err = r.TraceContext()
	return err
}

// TraceCtx implements TraceCarrier.
func (m *NewView) TraceCtx() TraceContext { return m.TC }

// SetTraceCtx implements TraceCarrier.
func (m *NewView) SetTraceCtx(tc TraceContext) { m.TC = tc }

// Signer implements Signed.
func (m *NewView) Signer() ids.ProcessID { return m.Leader }

// SigBytes implements Signed.
func (m *NewView) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer())
	m.encodeSigned(b.sized())
	return b.buf
}

// Signature implements Signed.
func (m *NewView) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *NewView) SetSignature(sig []byte) { m.Sig = sig }

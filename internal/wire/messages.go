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
)

// Smallest encodings of the elements decoded into slices (every
// variable-length field empty, untraced): what Codec.count multiplies an
// element count by before anything is allocated.
const (
	minEdgeSize    = 4 + 4
	minRequestSize = 8 + 8 + 4
	minPrepareSize = 1 + 4 + 8 + 8 + minRequestSize + 4 + 4 + 2
	minCommitSize  = 1 + 4 + 8 + 8 + 1 + 4 + 2
	minLogSlotSize = 8 + minPrepareSize
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

func (m *Heartbeat) layout(c *Codec) {
	c.proc(&m.From)
	c.U64(&m.Seq)
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

func (m *Update) layout(c *Codec) {
	c.tag(TypeUpdate)
	c.proc(&m.Owner)
	c.u64s(&m.Row)
	c.sig(&m.Sig)
}

// Signer implements Signed.
func (m *Update) Signer() ids.ProcessID { return m.Owner }

// SigBytes implements Signed.
func (m *Update) SigBytes() []byte { return sigBytes(m) }

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

func (m *Followers) layout(c *Codec) {
	c.tag(TypeFollowers)
	c.proc(&m.Leader)
	c.U64(&m.Epoch)
	c.procs(&m.Followers)
	for i := range Elems(c, &m.Line, minEdgeSize) {
		c.proc(&m.Line[i].U)
		c.proc(&m.Line[i].V)
	}
	c.sig(&m.Sig)
}

// Signer implements Signed.
func (m *Followers) Signer() ids.ProcessID { return m.Leader }

// SigBytes implements Signed.
func (m *Followers) SigBytes() []byte { return sigBytes(m) }

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

func (m *Request) layout(c *Codec) {
	c.U64(&m.Client)
	c.U64(&m.Seq)
	c.Bytes(&m.Op)
}

// Equal reports whether two requests are identical.
func (m *Request) Equal(o *Request) bool {
	return m.Client == o.Client && m.Seq == o.Seq && string(m.Op) == string(o.Op)
}

// Batch is a frame of client requests moved together: the replica
// host's ingress flushes one Batch instead of one frame per request
// (non-leader → leader forwarding in XPaxos). Requests are
// link-authenticated like individual Request frames; receivers
// deduplicate per request.
type Batch struct {
	Reqs []Request
	// TC is the sending host's ingress-span context, so a forwarded
	// batch stays part of the trace its buffering started.
	TC TraceContext
}

// Kind implements Message.
func (*Batch) Kind() Type { return TypeBatch }

func (m *Batch) layout(c *Codec) {
	c.requests(&m.Reqs)
	c.trace(&m.TC)
}

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

func (m *Prepare) layout(c *Codec) {
	c.tag(TypePrepare)
	c.proc(&m.Leader)
	c.U64(&m.View)
	c.U64(&m.Slot)
	m.Req.layout(c)
	c.requests(&m.Rest)
	c.sig(&m.Sig)
	c.trace(&m.TC)
}

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
func (m *Prepare) SigBytes() []byte { return sigBytes(m) }

// SameSigned reports whether m and o have the same SigBytes, comparing
// the covered fields instead of rendering them: the codec is canonical,
// so equal fields encode to equal bytes, and a nil and an empty Op or
// Rest encode alike. Sig and TC are outside the signed bytes and are
// not compared.
func (m *Prepare) SameSigned(o *Prepare) bool {
	if m.Leader != o.Leader || m.View != o.View || m.Slot != o.Slot ||
		!m.Req.Equal(&o.Req) || len(m.Rest) != len(o.Rest) {
		return false
	}
	for i := range m.Rest {
		if !m.Rest[i].Equal(&o.Rest[i]) {
			return false
		}
	}
	return true
}

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

func (m *Commit) layout(c *Codec) {
	c.tag(TypeCommit)
	c.proc(&m.Replica)
	c.U64(&m.View)
	c.U64(&m.Slot)
	c.flag(&m.HasPrep)
	if m.HasPrep {
		m.Prep.layout(c)
	}
	c.sig(&m.Sig)
	c.trace(&m.TC)
}

// Signer implements Signed.
func (m *Commit) Signer() ids.ProcessID { return m.Replica }

// SigBytes implements Signed.
func (m *Commit) SigBytes() []byte { return sigBytes(m) }

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

func (m *Reply) layout(c *Codec) {
	c.tag(TypeReply)
	c.proc(&m.Replica)
	c.U64(&m.Client)
	c.U64(&m.Seq)
	c.Bytes(&m.Result)
	c.sig(&m.Sig)
}

// Signer implements Signed.
func (m *Reply) Signer() ids.ProcessID { return m.Replica }

// SigBytes implements Signed.
func (m *Reply) SigBytes() []byte { return sigBytes(m) }

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

func (m *CommitCert) layout(c *Codec) {
	c.U64(&m.Slot)
	c.depth++ // each COMMIT is a whole message: its Sig and TC are its own
	for i := range Elems(c, &m.Commits, minCommitSize) {
		m.Commits[i].layout(c)
	}
	c.depth--
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
// serve it to lagging members). Executed is the sender's execution
// cursor: the incoming leader re-proposes only the slots above the
// lowest cursor of the new quorum's members.
type ViewChange struct {
	Replica        ids.ProcessID
	NewViewNum     uint64
	CheckpointSlot uint64
	CheckpointDig  []byte
	Snapshot       []byte
	Executed       uint64
	Log            []LogSlot
	Sig            []byte
	// TC is the sender's view-change-span context, so view-change
	// traffic joins the causal timeline like the normal case does.
	TC TraceContext
}

// Kind implements Message.
func (*ViewChange) Kind() Type { return TypeViewChange }

func (m *ViewChange) layout(c *Codec) {
	c.tag(TypeViewChange)
	c.proc(&m.Replica)
	c.U64(&m.NewViewNum)
	c.U64(&m.CheckpointSlot)
	c.Bytes(&m.CheckpointDig)
	c.Bytes(&m.Snapshot)
	c.U64(&m.Executed)
	c.log(&m.Log)
	c.sig(&m.Sig)
	c.trace(&m.TC)
}

// Signer implements Signed.
func (m *ViewChange) Signer() ids.ProcessID { return m.Replica }

// SigBytes implements Signed.
func (m *ViewChange) SigBytes() []byte { return sigBytes(m) }

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

func (m *NewView) layout(c *Codec) {
	c.tag(TypeNewView)
	c.proc(&m.Leader)
	c.U64(&m.ViewNum)
	c.U64(&m.CheckpointSlot)
	c.Bytes(&m.Snapshot)
	c.log(&m.Log)
	c.sig(&m.Sig)
	c.trace(&m.TC)
}

// Signer implements Signed.
func (m *NewView) Signer() ids.ProcessID { return m.Leader }

// SigBytes implements Signed.
func (m *NewView) SigBytes() []byte { return sigBytes(m) }

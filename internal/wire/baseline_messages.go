package wire

import (
	"quorumselect/internal/ids"
)

// PrePrepare is the PBFT-style baseline's PRE-PREPARE: the primary
// assigns a slot to a request and broadcasts it to all n replicas.
type PrePrepare struct {
	Leader ids.ProcessID
	View   uint64
	Slot   uint64
	Req    Request
	Sig    []byte
}

// Kind implements Message.
func (*PrePrepare) Kind() Type { return TypePrePrepare }

func (m *PrePrepare) layout(c *Codec) {
	c.tag(TypePrePrepare)
	c.proc(&m.Leader)
	c.U64(&m.View)
	c.U64(&m.Slot)
	m.Req.layout(c)
	c.sig(&m.Sig)
}

// Signer implements Signed.
func (m *PrePrepare) Signer() ids.ProcessID { return m.Leader }

// SigBytes implements Signed.
func (m *PrePrepare) SigBytes() []byte { return sigBytes(m) }

// phaseBody is the shared shape of the PBFT baseline's PREPARE and
// COMMIT phase messages: a vote on a (view, slot, digest) triple,
// signed under its kind's tag.
type phaseBody struct {
	Replica ids.ProcessID
	View    uint64
	Slot    uint64
	Digest  []byte
	Sig     []byte
}

func (m *phaseBody) layoutAs(c *Codec, t Type) {
	c.tag(t)
	c.proc(&m.Replica)
	c.U64(&m.View)
	c.U64(&m.Slot)
	c.Bytes(&m.Digest)
	c.sig(&m.Sig)
}

// Signer implements Signed.
func (m *phaseBody) Signer() ids.ProcessID { return m.Replica }

// PBFTPrepare is the baseline's PREPARE vote.
type PBFTPrepare struct {
	phaseBody
}

// Kind implements Message.
func (*PBFTPrepare) Kind() Type { return TypePBFTPrepare }

func (m *PBFTPrepare) layout(c *Codec) { m.layoutAs(c, TypePBFTPrepare) }

// SigBytes implements Signed.
func (m *PBFTPrepare) SigBytes() []byte { return sigBytes(m) }

// PBFTCommit is the baseline's COMMIT vote.
type PBFTCommit struct {
	phaseBody
}

// Kind implements Message.
func (*PBFTCommit) Kind() Type { return TypePBFTCommit }

func (m *PBFTCommit) layout(c *Codec) { m.layoutAs(c, TypePBFTCommit) }

// SigBytes implements Signed.
func (m *PBFTCommit) SigBytes() []byte { return sigBytes(m) }

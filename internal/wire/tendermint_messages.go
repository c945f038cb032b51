package wire

import (
	"quorumselect/internal/ids"
)

// Compile-time interface checks.
var (
	_ Signed = (*TMProposal)(nil)
	_ Signed = (*TMPrevote)(nil)
	_ Signed = (*TMPrecommit)(nil)
)

// TMProposal is the Tendermint-style engine's PROPOSAL: the proposer of
// (height, round) proposes a client request for decision.
type TMProposal struct {
	Proposer ids.ProcessID
	Height   uint64
	Round    uint64
	Req      Request
	Sig      []byte
}

// Kind implements Message.
func (*TMProposal) Kind() Type { return TypeTMProposal }

func (m *TMProposal) encodeBody(b *Buffer) {
	m.encodeSigned(b)
	b.PutBytes(m.Sig)
}

func (m *TMProposal) encodeSigned(b *Buffer) {
	b.PutUint8(uint8(TypeTMProposal))
	b.PutProc(m.Proposer)
	b.PutUint64(m.Height)
	b.PutUint64(m.Round)
	m.Req.encodeBody(b)
}

func (m *TMProposal) decodeBody(r *Reader) error {
	if err := r.Tag(TypeTMProposal); err != nil {
		return err
	}
	var err error
	if m.Proposer, err = r.Proc(); err != nil {
		return err
	}
	if m.Height, err = r.Uint64(); err != nil {
		return err
	}
	if m.Round, err = r.Uint64(); err != nil {
		return err
	}
	if err = m.Req.decodeBody(r); err != nil {
		return err
	}
	m.Sig, err = r.sig()
	return err
}

// Signer implements Signed.
func (m *TMProposal) Signer() ids.ProcessID { return m.Proposer }

// SigBytes implements Signed.
func (m *TMProposal) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer())
	m.encodeSigned(b.sized(nil))
	return b.buf
}

// Signature implements Signed.
func (m *TMProposal) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *TMProposal) SetSignature(sig []byte) { m.Sig = sig }

// TMPrevote is a prevote on (height=Slot, round=View, proposal digest).
// It reuses the generic phase-vote shape.
type TMPrevote struct {
	phaseBody
}

// Kind implements Message.
func (*TMPrevote) Kind() Type { return TypeTMPrevote }

func (m *TMPrevote) encodeBody(b *Buffer) {
	m.encodeSigned(b, TypeTMPrevote)
	b.PutBytes(m.Sig)
}

func (m *TMPrevote) decodeBody(r *Reader) error { return m.decode(r, TypeTMPrevote) }

// Signer implements Signed.
func (m *TMPrevote) Signer() ids.ProcessID { return m.Replica }

// SigBytes implements Signed.
func (m *TMPrevote) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer(), TypeTMPrevote)
	m.encodeSigned(b.sized(nil), TypeTMPrevote)
	return b.buf
}

// Signature implements Signed.
func (m *TMPrevote) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *TMPrevote) SetSignature(sig []byte) { m.Sig = sig }

// TMDecided is a self-certifying decision certificate: the decided
// proposal together with the precommit votes that justify it. It is not
// itself signed — the embedded signatures carry the authority — and is
// used for catch-up: a replica that joins the active set mid-stream (or
// lagged behind) verifies the certificate chain instead of replaying
// consensus.
type TMDecided struct {
	Height     uint64
	Round      uint64
	Proposal   TMProposal
	Precommits []TMPrecommit
}

// Kind implements Message.
func (*TMDecided) Kind() Type { return TypeTMDecided }

func (m *TMDecided) encodeBody(b *Buffer) {
	b.PutUint64(m.Height)
	b.PutUint64(m.Round)
	m.Proposal.encodeBody(b)
	b.PutUint32(uint32(len(m.Precommits)))
	for i := range m.Precommits {
		m.Precommits[i].encodeBody(b)
	}
}

func (m *TMDecided) decodeBody(r *Reader) error {
	var err error
	if m.Height, err = r.Uint64(); err != nil {
		return err
	}
	if m.Round, err = r.Uint64(); err != nil {
		return err
	}
	if err = m.Proposal.decodeBody(r); err != nil {
		return err
	}
	n, err := r.sliceLen(minPhaseBodySize)
	if err != nil {
		return err
	}
	m.Precommits = make([]TMPrecommit, n)
	for i := range m.Precommits {
		if err = m.Precommits[i].decodeBody(r); err != nil {
			return err
		}
	}
	return nil
}

// TMPrecommit is a precommit vote; same shape as TMPrevote.
type TMPrecommit struct {
	phaseBody
}

// Kind implements Message.
func (*TMPrecommit) Kind() Type { return TypeTMPrecommit }

func (m *TMPrecommit) encodeBody(b *Buffer) {
	m.encodeSigned(b, TypeTMPrecommit)
	b.PutBytes(m.Sig)
}

func (m *TMPrecommit) decodeBody(r *Reader) error { return m.decode(r, TypeTMPrecommit) }

// Signer implements Signed.
func (m *TMPrecommit) Signer() ids.ProcessID { return m.Replica }

// SigBytes implements Signed.
func (m *TMPrecommit) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer(), TypeTMPrecommit)
	m.encodeSigned(b.sized(nil), TypeTMPrecommit)
	return b.buf
}

// Signature implements Signed.
func (m *TMPrecommit) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *TMPrecommit) SetSignature(sig []byte) { m.Sig = sig }

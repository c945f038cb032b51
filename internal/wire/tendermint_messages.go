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

func (m *TMProposal) layout(c *Codec) {
	c.tag(TypeTMProposal)
	c.proc(&m.Proposer)
	c.U64(&m.Height)
	c.U64(&m.Round)
	m.Req.layout(c)
	c.sig(&m.Sig)
}

// Signer implements Signed.
func (m *TMProposal) Signer() ids.ProcessID { return m.Proposer }

// SigBytes implements Signed.
func (m *TMProposal) SigBytes() []byte { return sigBytes(m) }

// TMPrevote is a prevote on (height=Slot, round=View, proposal digest).
// It reuses the generic phase-vote shape.
type TMPrevote struct {
	phaseBody
}

// Kind implements Message.
func (*TMPrevote) Kind() Type { return TypeTMPrevote }

func (m *TMPrevote) layout(c *Codec) { m.layoutAs(c, TypeTMPrevote) }

// SigBytes implements Signed.
func (m *TMPrevote) SigBytes() []byte { return sigBytes(m) }

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

func (m *TMDecided) layout(c *Codec) {
	c.U64(&m.Height)
	c.U64(&m.Round)
	c.depth++ // the proposal and votes are whole messages: their Sigs are their own
	m.Proposal.layout(c)
	for i := range Elems(c, &m.Precommits, minPhaseBodySize) {
		m.Precommits[i].layout(c)
	}
	c.depth--
}

// TMPrecommit is a precommit vote; same shape as TMPrevote.
type TMPrecommit struct {
	phaseBody
}

// Kind implements Message.
func (*TMPrecommit) Kind() Type { return TypeTMPrecommit }

func (m *TMPrecommit) layout(c *Codec) { m.layoutAs(c, TypeTMPrecommit) }

// SigBytes implements Signed.
func (m *TMPrecommit) SigBytes() []byte { return sigBytes(m) }

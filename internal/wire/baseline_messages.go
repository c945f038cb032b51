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

func (m *PrePrepare) encodeBody(b *Buffer) {
	m.encodeSigned(b)
	b.PutBytes(m.Sig)
}

func (m *PrePrepare) encodeSigned(b *Buffer) {
	b.PutUint8(uint8(TypePrePrepare))
	b.PutProc(m.Leader)
	b.PutUint64(m.View)
	b.PutUint64(m.Slot)
	m.Req.encodeBody(b)
}

func (m *PrePrepare) decodeBody(r *Reader) error {
	if err := r.Tag(TypePrePrepare); err != nil {
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
	m.Sig, err = r.sig()
	return err
}

// Signer implements Signed.
func (m *PrePrepare) Signer() ids.ProcessID { return m.Leader }

// SigBytes implements Signed.
func (m *PrePrepare) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer())
	m.encodeSigned(b.sized(nil))
	return b.buf
}

// Signature implements Signed.
func (m *PrePrepare) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *PrePrepare) SetSignature(sig []byte) { m.Sig = sig }

// phaseBody is the shared shape of the PBFT baseline's PREPARE and
// COMMIT phase messages: a vote on a (view, slot, digest) triple.
type phaseBody struct {
	Replica ids.ProcessID
	View    uint64
	Slot    uint64
	Digest  []byte
	Sig     []byte
}

func (m *phaseBody) encodeSigned(b *Buffer, t Type) {
	b.PutUint8(uint8(t))
	b.PutProc(m.Replica)
	b.PutUint64(m.View)
	b.PutUint64(m.Slot)
	b.PutBytes(m.Digest)
}

func (m *phaseBody) decode(r *Reader, t Type) error {
	if err := r.Tag(t); err != nil {
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
	if m.Digest, err = r.Bytes(); err != nil {
		return err
	}
	m.Sig, err = r.sig()
	return err
}

// PBFTPrepare is the baseline's PREPARE vote.
type PBFTPrepare struct {
	phaseBody
}

// Kind implements Message.
func (*PBFTPrepare) Kind() Type { return TypePBFTPrepare }

func (m *PBFTPrepare) encodeBody(b *Buffer) {
	m.encodeSigned(b, TypePBFTPrepare)
	b.PutBytes(m.Sig)
}

func (m *PBFTPrepare) decodeBody(r *Reader) error { return m.decode(r, TypePBFTPrepare) }

// Signer implements Signed.
func (m *PBFTPrepare) Signer() ids.ProcessID { return m.Replica }

// SigBytes implements Signed.
func (m *PBFTPrepare) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer(), TypePBFTPrepare)
	m.encodeSigned(b.sized(nil), TypePBFTPrepare)
	return b.buf
}

// Signature implements Signed.
func (m *PBFTPrepare) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *PBFTPrepare) SetSignature(sig []byte) { m.Sig = sig }

// PBFTCommit is the baseline's COMMIT vote.
type PBFTCommit struct {
	phaseBody
}

// Kind implements Message.
func (*PBFTCommit) Kind() Type { return TypePBFTCommit }

func (m *PBFTCommit) encodeBody(b *Buffer) {
	m.encodeSigned(b, TypePBFTCommit)
	b.PutBytes(m.Sig)
}

func (m *PBFTCommit) decodeBody(r *Reader) error { return m.decode(r, TypePBFTCommit) }

// Signer implements Signed.
func (m *PBFTCommit) Signer() ids.ProcessID { return m.Replica }

// SigBytes implements Signed.
func (m *PBFTCommit) SigBytes() []byte {
	var b Buffer
	m.encodeSigned(b.sizer(), TypePBFTCommit)
	m.encodeSigned(b.sized(nil), TypePBFTCommit)
	return b.buf
}

// Signature implements Signed.
func (m *PBFTCommit) Signature() []byte { return m.Sig }

// SetSignature implements Signed.
func (m *PBFTCommit) SetSignature(sig []byte) { m.Sig = sig }

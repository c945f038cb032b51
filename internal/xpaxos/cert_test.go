package xpaxos_test

import (
	"testing"
	"time"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/quorum"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
	"quorumselect/internal/wire"
)

// certSender is a process that ships one crafted lazy-replication
// certificate to p4 and does nothing else. A CommitCert is an unsigned
// container, so any process can send any certificate; only the
// receiver's check stands between it and the log.
type certSender struct{ cert *wire.CommitCert }

func (s *certSender) Init(env runtime.Env) {
	env.After(time.Millisecond, func() { env.Send(4, s.cert) })
}

func (*certSender) Receive(ids.ProcessID, wire.Message) {}

// signAs signs m as its own signer, which a test ring lets any caller
// do.
func signAs(t *testing.T, auth crypto.Authenticator, m wire.Signed) {
	t.Helper()
	covered, sig := wire.Signing(m)
	s, err := auth.Sign(m.Signer(), covered)
	if err != nil {
		t.Fatal(err)
	}
	*sig = s
}

// certPrepare is p1's signed view-0 PREPARE for slot 1.
func certPrepare(t *testing.T, auth crypto.Authenticator, op string) wire.Prepare {
	p := wire.Prepare{Leader: 1, Slot: 1, Req: wire.Request{Client: 1, Seq: 1, Op: []byte(op)}}
	signAs(t, auth, &p)
	return p
}

// certCommit is replica's signed COMMIT embedding prep.
func certCommit(t *testing.T, auth crypto.Authenticator, replica ids.ProcessID, prep wire.Prepare) wire.Commit {
	c := wire.Commit{Replica: replica, View: prep.View, Slot: prep.Slot, HasPrep: true, Prep: prep}
	signAs(t, auth, &c)
	return c
}

// certOf is the certificate of slot 1 signed by signers, all embedding
// prep.
func certOf(t *testing.T, auth crypto.Authenticator, prep wire.Prepare, signers ...ids.ProcessID) *wire.CommitCert {
	cert := &wire.CommitCert{Slot: 1}
	for _, p := range signers {
		cert.Commits = append(cert.Commits, certCommit(t, auth, p, prep))
	}
	return cert
}

// countingAuth counts Verify calls on the ring it wraps.
type countingAuth struct {
	crypto.Authenticator
	verifies int
}

func (a *countingAuth) Verify(signer ids.ProcessID, data, sig []byte) error {
	a.verifies++
	return a.Authenticator.Verify(signer, data, sig)
}

// deliverCert runs a 4-process cluster in which p1 sends cert to the
// passive replica p4, p2 and p3 stay silent, and p4 runs on spec ("" is
// the default threshold system). It reports whether p4 applied the
// certificate and how many signatures were checked in the whole run.
func deliverCert(t *testing.T, spec string, build func(crypto.Authenticator) *wire.CommitCert) (applied bool, verifies int) {
	t.Helper()
	cfg := ids.MustConfig(4, 1)
	auth := &countingAuth{Authenticator: crypto.NewHMACRing(cfg, []byte("cert-test-master"))}
	cert := build(auth.Authenticator)
	opts := quietNodeOpts()
	if spec != "" {
		opts.Quorum = quorum.MustParseSpec(spec)
	}
	fx := newQSFixture(t, 4, 1, opts, sim.Options{Auth: auth}, ids.NewProcSet(2, 3),
		map[ids.ProcessID]runtime.Node{1: &certSender{cert: cert}})
	defer fx.net.Close()
	fx.net.Run(time.Second)
	reg := fx.net.Metrics()
	got, rejected := reg.Counter("xpaxos.cert.applied"), reg.Counter("xpaxos.cert.rejected")
	executed := fx.replicas[4].LastExecuted()
	switch {
	case got == 1 && rejected == 0 && executed == 1:
		return true, auth.verifies
	case got == 0 && rejected == 1 && executed == 0:
		return false, auth.verifies
	}
	t.Fatalf("cert.applied=%d cert.rejected=%d executed=%d: want exactly one verdict", got, rejected, executed)
	return false, 0
}

// TestCommitCertAcceptance: a passive replica applies a certificate
// exactly when a quorum of its system — counted by IsQuorum, not by
// number — signed COMMITs embedding one validly signed PREPARE for
// the certificate's slot.
func TestCommitCertAcceptance(t *testing.T) {
	const weighted = "weighted:w=2,2,1,1;t=4"
	if rep := quorum.Check(quorum.MustParseSpec(weighted), quorum.CheckOptions{Faults: 1}); rep.Err() != nil {
		t.Fatalf("%s fails quorum.Check at f=1: %v", weighted, rep.Err())
	}
	rows := []struct {
		name  string
		spec  string
		build func(t *testing.T, a crypto.Authenticator) *wire.CommitCert
		want  bool
	}{
		{"valid", "", func(t *testing.T, a crypto.Authenticator) *wire.CommitCert {
			return certOf(t, a, certPrepare(t, a, "set x 1"), 1, 2, 3)
		}, true},
		{"forged-commit", "", func(t *testing.T, a crypto.Authenticator) *wire.CommitCert {
			cert := certOf(t, a, certPrepare(t, a, "set x 1"), 1, 2, 3)
			cert.Commits[2].Sig = append([]byte(nil), cert.Commits[0].Sig...)
			return cert
		}, false},
		{"forged-prepare", "", func(t *testing.T, a crypto.Authenticator) *wire.CommitCert {
			prep := certPrepare(t, a, "set x 1")
			forged := prep
			forged.Sig = append([]byte{^prep.Sig[0]}, prep.Sig[1:]...)
			cert := certOf(t, a, prep, 1, 2)
			cert.Commits = append(cert.Commits, certCommit(t, a, 3, forged))
			return cert
		}, false},
		{"other-prepare", "", func(t *testing.T, a crypto.Authenticator) *wire.CommitCert {
			cert := certOf(t, a, certPrepare(t, a, "set x 1"), 1, 2)
			cert.Commits = append(cert.Commits, certCommit(t, a, 3, certPrepare(t, a, "set x 2")))
			return cert
		}, false},
		{"duplicate-signer", "", func(t *testing.T, a crypto.Authenticator) *wire.CommitCert {
			return certOf(t, a, certPrepare(t, a, "set x 1"), 1, 2, 2)
		}, false},
		{"wrong-slot", "", func(t *testing.T, a crypto.Authenticator) *wire.CommitCert {
			cert := certOf(t, a, certPrepare(t, a, "set x 1"), 1, 2)
			other := wire.Prepare{Leader: 1, Slot: 2, Req: wire.Request{Client: 1, Seq: 2, Op: []byte("set x 1")}}
			signAs(t, a, &other)
			cert.Commits = append(cert.Commits, certCommit(t, a, 3, other))
			return cert
		}, false},
		{"weighted-heavy-pair", weighted, func(t *testing.T, a crypto.Authenticator) *wire.CommitCert {
			return certOf(t, a, certPrepare(t, a, "set x 1"), 1, 2) // weight 4, below n−f signers
		}, true},
		{"weighted-light-pair", weighted, func(t *testing.T, a crypto.Authenticator) *wire.CommitCert {
			return certOf(t, a, certPrepare(t, a, "set x 1"), 1, 3) // weight 3
		}, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			applied, _ := deliverCert(t, row.spec, func(a crypto.Authenticator) *wire.CommitCert { return row.build(t, a) })
			if applied != row.want {
				t.Errorf("applied = %v, want %v", applied, row.want)
			}
		})
	}
}

// TestCommitCertVerifyCost: the certificate check runs each signature
// once. A well-formed certificate of q commits costs q+1 checks (q
// COMMITs, one shared PREPARE), and no certificate costs more than 2n
// however many commits it lists.
func TestCommitCertVerifyCost(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	q := cfg.Q()
	applied, got := deliverCert(t, "", func(a crypto.Authenticator) *wire.CommitCert {
		return certOf(t, a, certPrepare(t, a, "set x 1"), 1, 2, 3)
	})
	if !applied || got != q+1 {
		t.Errorf("well-formed certificate: applied=%v after %d checks, want applied after q+1 = %d", applied, got, q+1)
	}
	applied, got = deliverCert(t, "", func(a crypto.Authenticator) *wire.CommitCert {
		// 64 validly signed COMMITs cycling through every replica, each
		// embedding its own forged PREPARE.
		cert := &wire.CommitCert{Slot: 1}
		for i := 0; i < 64; i++ {
			prep := certPrepare(t, a, "set x 1")
			prep.Sig[0] ^= 0xff
			prep.Sig[1] = byte(i)
			cert.Commits = append(cert.Commits, certCommit(t, a, ids.ProcessID(i%cfg.N+1), prep))
		}
		return cert
	})
	if applied || got > 2*cfg.N {
		t.Errorf("64-commit garbage certificate: applied=%v after %d checks, want rejected after at most 2n = %d", applied, got, 2*cfg.N)
	}
}

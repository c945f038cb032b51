package wire_test

import (
	"testing"

	"quorumselect/internal/crypto"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// verifyEnv is the one Env method runtime.Verify uses.
type verifyEnv struct {
	runtime.Env
	auth crypto.Authenticator
}

func (e verifyEnv) Auth() crypto.Authenticator { return e.auth }

// TestChangedSignedFieldFailsVerify: the signed bytes a receiver checks
// are kept by the decoder only for the frame being authenticated, never
// on the message. A decoded message whose signed field changes after
// decode therefore fails runtime.Verify, which re-encodes what the
// message now says — kept bytes can never vouch for stale content.
func TestChangedSignedFieldFailsVerify(t *testing.T) {
	cfg := ids.MustConfig(4, 1)
	env := verifyEnv{auth: crypto.NewHMACRing(cfg, []byte("stale"))}
	prep := &wire.Prepare{Leader: 1, View: 2, Slot: 3, Req: wire.Request{Client: 9, Seq: 1, Op: []byte("set k v")}}
	sig, err := env.auth.Sign(1, prep.SigBytes())
	if err != nil {
		t.Fatal(err)
	}
	prep.Sig = sig
	for name, frame := range map[string][]byte{
		"bare":     wire.Encode(prep),
		"envelope": wire.Encode(&wire.ShardEnvelope{Shard: 0, Inner: prep}),
	} {
		m, kept, err := wire.DecodeSigned(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, ok := m.(*wire.Prepare)
		if env, isEnv := m.(*wire.ShardEnvelope); isEnv {
			got, ok = env.Inner.(*wire.Prepare)
		}
		if !ok || kept == nil {
			t.Fatalf("%s: decoded %T with %d kept bytes", name, m, len(kept))
		}
		if err := runtime.Verify(env, got); err != nil {
			t.Fatalf("%s: decoded PREPARE does not verify: %v", name, err)
		}
		got.Slot++
		if err := runtime.Verify(env, got); err == nil {
			t.Fatalf("%s: PREPARE verifies after its slot changed", name)
		}
		got.Slot--
		got.Req.Op[0] ^= 1
		if err := runtime.Verify(env, got); err == nil {
			t.Fatalf("%s: PREPARE verifies after its operation changed", name)
		}
	}
}

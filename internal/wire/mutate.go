package wire

import "math/rand"

// MutateFrame deterministically corrupts one canonical frame, modeling
// a Byzantine sender (commission failure, §II of the paper): bit flips
// in fixed-width fields, truncation, trailing garbage, and signature
// corruption. It may edit frame in place or return a fresh slice; the
// caller must use only the returned slice.
//
// The returned bytes always differ from the input. Combined with the
// codec's canonicity invariant (accepted bytes re-encode identically),
// that means every mutant that still decodes is a *different* message —
// there are no silent-equal mutants — and any mutant whose signed
// content or signature changed fails verification under unbroken
// crypto. FuzzWireMutation pins both properties.
func MutateFrame(rng *rand.Rand, frame []byte) []byte {
	if len(frame) == 0 {
		return append(frame, byte(1+rng.Intn(255)))
	}
	switch rng.Intn(7) {
	case 0:
		// Single bit flip anywhere, type tag included: the classic
		// corrupted-field commission fault. XOR can never be identity.
		frame[rng.Intn(len(frame))] ^= 1 << uint(rng.Intn(8))
		return frame
	case 1:
		// Whole-byte corruption of one field byte.
		frame[rng.Intn(len(frame))] ^= byte(1 + rng.Intn(255))
		return frame
	case 2:
		// Truncation: a sender that stops mid-frame. Strictly shorter,
		// so it can only decode as garbage (the codec rejects both
		// short reads and trailing bytes).
		return frame[:rng.Intn(len(frame))]
	case 3:
		// Trailing garbage: strictly longer, rejected by the codec's
		// no-trailing-bytes rule.
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			frame = append(frame, byte(rng.Intn(256)))
		}
		return frame
	case 4:
		// Trace-context scramble: rewrite the piggybacked context of a
		// carrier frame. On a bare signed frame the context is outside
		// SigBytes, so the mutant still verifies — the receiver must
		// treat it as at worst a wrong trace, never a protocol input.
		m, err := Decode(frame)
		if err != nil {
			frame[rng.Intn(len(frame))] ^= 1 << uint(rng.Intn(8))
			return frame
		}
		c, ok := m.(TraceCarrier)
		if !ok {
			frame[rng.Intn(len(frame))] ^= 1 << uint(rng.Intn(8))
			return frame
		}
		tc := c.TraceCtx()
		// XOR with a non-zero delta so the context — and with it the
		// re-encoded frame — always differs from the original.
		tc.Trace ^= 1 + uint64(rng.Int63())
		tc.Span ^= uint64(rng.Int63())
		c.SetTraceCtx(tc)
		return AppendEncode(frame[:0], m)
	case 5:
		// Shard-ID scramble: relabel a fleet envelope's shard field —
		// cross-shard misrouting. The inner frame is untouched, so the
		// mutant still decodes as a well-formed envelope; the receiver
		// must reject it, never execute it (a signed inner frame dies at
		// the domain-separated check made under the shard it now names,
		// an unsigned one naming a shard nobody runs at the fleet's
		// demultiplexer).
		m, err := Decode(frame)
		if err != nil {
			frame[rng.Intn(len(frame))] ^= 1 << uint(rng.Intn(8))
			return frame
		}
		env, ok := m.(*ShardEnvelope)
		if !ok {
			frame[rng.Intn(len(frame))] ^= 1 << uint(rng.Intn(8))
			return frame
		}
		// XOR with a non-zero delta so the shard — and with it the
		// re-encoded frame — always differs from the original. Small
		// deltas keep most mutants inside a realistic fleet's shard
		// range (misrouting), the rest are out-of-range garbage.
		env.Shard ^= uint32(1 + rng.Intn(1<<16))
		return AppendEncode(frame[:0], m)
	default:
		// Signature corruption: re-encode the message with a flipped
		// signature — a forgery attempt that must die at Verify.
		m, err := Decode(frame)
		if err != nil {
			// Not a valid frame to begin with; degrade to a bit flip.
			frame[rng.Intn(len(frame))] ^= 1 << uint(rng.Intn(8))
			return frame
		}
		s, ok := m.(Signed)
		if !ok || len(s.Signature()) == 0 {
			frame[rng.Intn(len(frame))] ^= 1 << uint(rng.Intn(8))
			return frame
		}
		sig := append([]byte(nil), s.Signature()...)
		sig[rng.Intn(len(sig))] ^= byte(1 + rng.Intn(255))
		s.SetSignature(sig)
		return AppendEncode(frame[:0], m)
	}
}

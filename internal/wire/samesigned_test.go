package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomOp returns nil, an empty op, or up to 12 random bytes.
func randomOp(rng *rand.Rand) []byte {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	op := make([]byte, 1+rng.Intn(12))
	rng.Read(op)
	return op
}

func randomRequest(rng *rand.Rand) Request {
	return Request{Client: uint64(rng.Intn(4)), Seq: uint64(rng.Intn(4)), Op: randomOp(rng)}
}

// randomPrepare draws a PREPARE of 1–16 requests; a one-request batch
// has a nil or an empty Rest.
func randomPrepare(rng *rand.Rand) *Prepare {
	p := &Prepare{Leader: 1, View: uint64(rng.Intn(3)), Slot: uint64(rng.Intn(3)), Req: randomRequest(rng),
		Sig: randomOp(rng), TC: TraceContext{Trace: uint64(rng.Intn(3)), Span: uint64(rng.Intn(3))}}
	if n := rng.Intn(16); n > 0 || rng.Intn(2) == 0 {
		p.Rest = make([]Request, n)
		for i := range p.Rest {
			p.Rest[i] = randomRequest(rng)
		}
	}
	return p
}

func clonePrepare(p *Prepare) *Prepare {
	c := *p
	c.Req.Op = cloneOp(p.Req.Op)
	if p.Rest != nil {
		c.Rest = make([]Request, len(p.Rest))
		for i, r := range p.Rest {
			c.Rest[i] = r
			c.Rest[i].Op = cloneOp(r.Op)
		}
	}
	c.Sig = cloneOp(p.Sig)
	return &c
}

// cloneOp copies an op, keeping nil and empty apart.
func cloneOp(op []byte) []byte {
	if op == nil {
		return nil
	}
	return append([]byte{}, op...)
}

// opMutations are the single changes an op can take: a byte flipped,
// a byte added, one dropped, and the swap between nil and empty.
func opMutations(op []byte) [][]byte {
	out := [][]byte{append(cloneOp(op), 0x5a)}
	if len(op) > 0 {
		flipped := cloneOp(op)
		flipped[len(op)/2] ^= 1
		out = append(out, flipped, cloneOp(op[:len(op)-1]))
	}
	switch {
	case op == nil:
		out = append(out, []byte{})
	case len(op) == 0:
		out = append(out, nil)
	}
	return out
}

// requestMutations applies every single-field change to r.
func requestMutations(r *Request, apply func(mutate func())) {
	client, seq, op := r.Client, r.Seq, r.Op
	apply(func() { r.Client++ })
	r.Client = client
	apply(func() { r.Seq ^= 1 << 40 })
	r.Seq = seq
	for _, m := range opMutations(op) {
		apply(func() { r.Op = m })
	}
	r.Op = op
}

// prepareMutations calls check once per single-field mutation of b.
// Each mutation is undone before the next.
func prepareMutations(b *Prepare, check func()) {
	apply := func(mutate func()) { mutate(); check() }
	leader, view, slot, rest, sig, tc := b.Leader, b.View, b.Slot, b.Rest, b.Sig, b.TC
	apply(func() { b.Leader++ })
	b.Leader = leader
	apply(func() { b.View++ })
	b.View = view
	apply(func() { b.Slot ^= 1 })
	b.Slot = slot
	requestMutations(&b.Req, apply)
	for i := range b.Rest {
		requestMutations(&b.Rest[i], apply)
	}
	apply(func() { b.Rest = append(append([]Request(nil), rest...), Request{}) })
	if len(rest) > 0 {
		apply(func() { b.Rest = rest[:len(rest)-1] })
	}
	if len(rest) == 0 {
		apply(func() { b.Rest = []Request{} })
		apply(func() { b.Rest = nil })
	}
	b.Rest = rest
	apply(func() { b.Sig = append(cloneOp(sig), 1) })
	b.Sig = sig
	apply(func() { b.TC.Span++ })
	b.TC = tc
}

// TestSameSignedMatchesSigBytes: for seeded random PREPAREs and every
// single-field mutation of a copy, SameSigned answers exactly what
// comparing the rendered SigBytes answers, and changing Sig or TC on
// top never changes the answer.
func TestSameSignedMatchesSigBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	checks, differ := 0, 0
	for trial := 0; trial < 300; trial++ {
		a := randomPrepare(rng)
		b := clonePrepare(a)
		check := func() {
			t.Helper()
			checks++
			want := bytes.Equal(a.SigBytes(), b.SigBytes())
			if !want {
				differ++
			}
			if got := a.SameSigned(b); got != want {
				t.Fatalf("trial %d: SameSigned = %v, SigBytes equal = %v\n a: %+v\n b: %+v", trial, got, want, a, b)
			}
			if got := b.SameSigned(a); got != want {
				t.Fatalf("trial %d: SameSigned is not symmetric", trial)
			}
			sig, tc := b.Sig, b.TC
			b.Sig, b.TC = []byte("another signature"), TraceContext{Trace: 99, Span: 98}
			if got := a.SameSigned(b); got != want {
				t.Fatalf("trial %d: changing Sig and TC changed SameSigned to %v", trial, got)
			}
			b.Sig, b.TC = sig, tc
		}
		check()
		prepareMutations(b, check)
		if !a.SameSigned(b) {
			t.Fatalf("trial %d: mutations were not undone", trial)
		}
	}
	if differ == 0 || differ == checks {
		t.Fatalf("%d of %d checks differed: the mutations do not exercise both answers", differ, checks)
	}
}

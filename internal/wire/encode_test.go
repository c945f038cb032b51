package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// bigLog is a view-change log of n slots, each holding a two-request
// prepare.
func bigLog(n int) []LogSlot {
	log := make([]LogSlot, n)
	for i := range log {
		slot := uint64(i + 1)
		log[i] = LogSlot{Slot: slot, Prep: Prepare{Leader: 1, View: 3, Slot: slot,
			Req:  Request{Client: 7, Seq: slot, Op: []byte("set k v")},
			Rest: []Request{{Client: 8, Seq: slot, Op: []byte("append k w")}},
			Sig:  []byte{1, 2, 3}}}
	}
	return log
}

// exactSizeSamples is the round-trip table, a VIEW-CHANGE and a
// NEW-VIEW with 1,000-slot logs, and a SHARD-ENVELOPE around each
// signed kind.
func exactSizeSamples() []Message {
	ms := append(sampleMessages(),
		&ViewChange{Replica: 2, NewViewNum: 4, CheckpointDig: []byte{0xcd}, Snapshot: []byte("snap"), Log: bigLog(1000), Sig: []byte{2},
			TC: TraceContext{Trace: 1 << 50, Span: 3}},
		&NewView{Leader: 1, ViewNum: 4, Snapshot: []byte("snap"), Log: bigLog(1000), Sig: []byte{3}})
	for _, s := range signedSamples() {
		ms = append(ms, &ShardEnvelope{Shard: 5, Inner: s})
	}
	return ms
}

// sizeOf is the length of m's frame as a sizing pass counts it.
func sizeOf(m Message) int {
	c := newCodec()
	defer c.release()
	c.b = buffer{sizing: true}
	c.frame(m)
	return c.b.n
}

// TestAppendEncodeSizesExactly: a frame that does not fit its
// destination is counted before it is written again, so Encode makes
// one allocation of exactly the frame's length, and AppendEncode grows
// its destination at most once, to exactly the length needed, or not at
// all when the room is there. A codec step that wrote around the
// sizing-aware Put*/extend helpers would be undercounted and fail the
// len == cap checks.
func TestAppendEncodeSizesExactly(t *testing.T) {
	prefix := []byte("prefix")
	for _, m := range exactSizeSamples() {
		name := m.Kind().String()
		if env, ok := m.(*ShardEnvelope); ok {
			name += "/" + env.Inner.Kind().String()
		}
		frame := Encode(m)
		if len(frame) != cap(frame) {
			t.Errorf("%s: Encode len %d in a buffer of cap %d", name, len(frame), cap(frame))
		}
		if n := sizeOf(m); n != len(frame) {
			t.Errorf("%s: sizing pass counted %d bytes, the frame has %d", name, n, len(frame))
		}
		got, err := Decode(frame)
		if err != nil {
			t.Errorf("%s: Decode: %v", name, err)
		} else if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round trip mismatch", name)
		}

		// A full prefix grows once, to exactly prefix + frame.
		dst := append(make([]byte, 0, len(prefix)), prefix...)
		out := AppendEncode(dst, m)
		if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], frame) {
			t.Errorf("%s: AppendEncode onto a prefix wrote different bytes", name)
		}
		if len(out) != cap(out) {
			t.Errorf("%s: AppendEncode grew to cap %d for len %d", name, cap(out), len(out))
		}
		// A prefix with room for half the frame: the pass that runs out
		// of room turns into a count, then grows once.
		dst = append(make([]byte, 0, len(prefix)+len(frame)/2), prefix...)
		if out := AppendEncode(dst, m); len(out) != cap(out) || !bytes.Equal(out[len(prefix):], frame) {
			t.Errorf("%s: AppendEncode onto a half-roomy prefix grew to cap %d for len %d, or wrote different bytes",
				name, cap(out), len(out))
		}
		// A prefix with room enough is filled in place.
		dst = append(make([]byte, 0, len(prefix)+len(frame)), prefix...)
		if out := AppendEncode(dst, m); &out[0] != &dst[0] || !bytes.Equal(out[len(prefix):], frame) {
			t.Errorf("%s: AppendEncode with room to spare reallocated or wrote different bytes", name)
		}
	}
}

// TestEncodeAllocationBudget is the commit path's encode budget: a
// PREPARE carrying 8 requests encodes in one allocation, the frame
// itself (the encoder is pooled), and appending it to a buffer with
// room allocates nothing.
func TestEncodeAllocationBudget(t *testing.T) {
	if raceDetector {
		t.Skip("allocation budgets assume sync.Pool keeps what it is given")
	}
	prep := &Prepare{Leader: 1, View: 2, Slot: 3, Req: Request{Client: 1, Seq: 1, Op: []byte("set k0 v0")},
		Sig: make([]byte, 64)}
	for i := 1; i < 8; i++ {
		prep.Rest = append(prep.Rest, Request{Client: uint64(i), Seq: 1, Op: []byte("set k v")})
	}
	if allocs := testing.AllocsPerRun(100, func() { Encode(prep) }); allocs > 1 {
		t.Errorf("Encode of an 8-request PREPARE: %v allocs, budget 1", allocs)
	}
	buf := make([]byte, 0, len(Encode(prep)))
	if allocs := testing.AllocsPerRun(100, func() { AppendEncode(buf, prep) }); allocs != 0 {
		t.Errorf("AppendEncode of an 8-request PREPARE into a buffer with room: %v allocs, want 0", allocs)
	}
}

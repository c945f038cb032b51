package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"quorumselect/internal/ids"
)

// sampleMessages returns one populated instance of every message kind.
func sampleMessages() []Message {
	req := Request{Client: 7, Seq: 42, Op: []byte("set x=1")}
	prep := Prepare{Leader: 1, View: 3, Slot: 9, Req: req, Sig: []byte{1, 2, 3}}
	return []Message{
		&Heartbeat{From: 2, Seq: 100},
		&Batch{Reqs: []Request{
			{Client: 7, Seq: 43, Op: []byte("set y=2")},
			{Client: 8, Seq: 1, Op: []byte("get y")},
		}},
		&Batch{Reqs: []Request{{Client: 7, Seq: 45, Op: []byte("set w=4")}},
			TC: TraceContext{Trace: 1<<40 | 7, Span: 1<<40 | 9}},
		&Update{Owner: 3, Row: []uint64{0, 2, 0, 1, 5}, Sig: []byte{9, 8}},
		&Followers{
			Leader:    2,
			Epoch:     4,
			Followers: []ids.ProcessID{3, 4, 5},
			Line:      []Edge{{U: 1, V: 6}, {U: 6, V: 7}},
			Sig:       []byte{0xaa},
		},
		&req,
		&prep,
		&Prepare{Leader: 1, View: 3, Slot: 10, Req: req, Sig: []byte{1, 2, 3},
			Rest: []Request{
				{Client: 7, Seq: 44, Op: []byte("set z=3")},
				{Client: 9, Seq: 2, Op: []byte("del z")},
			}},
		&Prepare{Leader: 1, View: 3, Slot: 11, Req: req, Sig: []byte{1, 2, 3},
			TC: TraceContext{Trace: 2 << 40, Span: 2<<40 | 3}},
		&Commit{Replica: 4, View: 3, Slot: 9, HasPrep: true, Prep: prep, Sig: []byte{5}},
		&Commit{Replica: 4, View: 3, Slot: 9, HasPrep: false, Sig: []byte{5}},
		&Commit{Replica: 4, View: 3, Slot: 9, HasPrep: true, Prep: prep, Sig: []byte{5},
			TC: TraceContext{Trace: 4<<40 | 1, Span: 4<<40 | 2}},
		&Reply{Replica: 2, Client: 7, Seq: 42, Result: []byte("ok"), Sig: []byte{1}},
		&ViewChange{
			Replica:        5,
			NewViewNum:     8,
			CheckpointSlot: 4,
			CheckpointDig:  []byte{0xcd},
			Snapshot:       []byte("snapshot-bytes"),
			Log:            []LogSlot{{Slot: 9, Prep: prep}},
			Sig:            []byte{2},
		},
		&ViewChange{
			Replica:        6,
			NewViewNum:     9,
			CheckpointSlot: 4,
			CheckpointDig:  []byte{0xcd},
			Snapshot:       []byte("snapshot-bytes"),
			// The logged prepare keeps its own context; the outer frame
			// carries the view-change span's.
			Log: []LogSlot{{Slot: 9, Prep: Prepare{Leader: 1, View: 3, Slot: 9, Req: req,
				Sig: []byte{1, 2, 3}, TC: TraceContext{Trace: 1 << 40, Span: 1<<40 | 4}}}},
			Sig: []byte{2},
			TC:  TraceContext{Trace: 6 << 40, Span: 6<<40 | 1},
		},
		&NewView{Leader: 1, ViewNum: 8, CheckpointSlot: 4, Snapshot: []byte("snap"),
			Log: []LogSlot{{Slot: 9, Prep: prep}}, Sig: []byte{3}},
		&NewView{Leader: 1, ViewNum: 9, CheckpointSlot: 4, Snapshot: []byte("snap"),
			Log: []LogSlot{{Slot: 9, Prep: prep}}, Sig: []byte{3},
			TC: TraceContext{Trace: 1<<40 | 8, Span: 1<<40 | 8}},
		&PrePrepare{Leader: 1, View: 0, Slot: 1, Req: req, Sig: []byte{4}},
		&PBFTPrepare{phaseBody{Replica: 2, View: 0, Slot: 1, Digest: []byte{0xd}, Sig: []byte{6}}},
		&PBFTCommit{phaseBody{Replica: 3, View: 0, Slot: 1, Digest: []byte{0xd}, Sig: []byte{7}}},
		&ShardEnvelope{Shard: 0, Inner: &Heartbeat{From: 2, Seq: 100}},
		&ShardEnvelope{Shard: 3, Inner: &Prepare{Leader: 1, View: 3, Slot: 9, Req: req, Sig: []byte{1, 2, 3}}},
		&TMProposal{Proposer: 2, Height: 5, Round: 1, Req: req, Sig: []byte{10}},
		&TMPrevote{phaseBody{Replica: 3, View: 1, Slot: 5, Digest: []byte{0xe}, Sig: []byte{11}}},
		&TMPrecommit{phaseBody{Replica: 4, View: 1, Slot: 5, Digest: []byte{0xe}, Sig: []byte{12}}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		t.Run(m.Kind().String(), func(t *testing.T) {
			data := Encode(m)
			got, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode(%s): %v", m.Kind(), err)
			}
			if !reflect.DeepEqual(m, got) {
				t.Errorf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
			}
		})
	}
}

func TestEncodeDeterministic(t *testing.T) {
	for _, m := range sampleMessages() {
		a, b := Encode(m), Encode(m)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: non-deterministic encoding", m.Kind())
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	for _, m := range sampleMessages() {
		data := Encode(m)
		for cut := 0; cut < len(data); cut++ {
			if _, err := Decode(data[:cut]); err == nil {
				t.Errorf("%s: truncation at %d/%d decoded without error",
					m.Kind(), cut, len(data))
			}
		}
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	data := Encode(&Heartbeat{From: 1, Seq: 2})
	data = append(data, 0xff)
	if _, err := Decode(data); err == nil {
		t.Error("trailing bytes decoded without error")
	}
}

func TestDecodeUnknownType(t *testing.T) {
	if _, err := Decode([]byte{0xEE, 0, 0}); err == nil {
		t.Error("unknown type decoded without error")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty input decoded without error")
	}
	for _, frame := range reservedTagFrames() {
		if _, err := Decode(frame); !errors.Is(err, ErrUnknownType) {
			t.Errorf("reserved tag %d: Decode err = %v, want ErrUnknownType", frame[0], err)
		}
	}
}

// reservedTagFrames are well-formed frames under the retired Type values
// 13 and 14, as a peer running the old codec would send them.
func reservedTagFrames() [][]byte {
	return [][]byte{
		mustHex("0d0d0000000100000000000000020000000000000007000000000000002a" +
			"0000000773657420783d310000000200000001000000020000000108"),
		mustHex("0e0e0000000500000000000000020000000109"),
	}
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func TestDecodeRejectsHugeSlices(t *testing.T) {
	// Hand-craft an Update claiming a row of 2^30 entries.
	var b Buffer
	b.PutUint8(uint8(TypeUpdate))
	b.PutUint8(uint8(TypeUpdate))
	b.PutProc(1)
	b.PutUint32(1 << 30) // row length
	if _, err := Decode(b.Bytes()); err == nil {
		t.Error("oversized slice length decoded without error")
	}
}

// hostileUpdate is a 10-byte UPDATE frame whose row claims the largest
// length the codec accepts (2²⁰ cells = 8 MiB) and then ends.
func hostileUpdate() []byte {
	var b Buffer
	b.PutUint8(uint8(TypeUpdate))
	b.PutUint8(uint8(TypeUpdate))
	b.PutProc(1)
	b.PutUint32(maxSliceLen)
	return b.Bytes()
}

// TestDecodeHugeClaimAllocatesNothing: a slice length is checked
// against the bytes actually present before anything is allocated, so a
// short frame claiming a huge slice costs an error, not memory.
func TestDecodeHugeClaimAllocatesNothing(t *testing.T) {
	frames := map[string][]byte{"update row": hostileUpdate()}
	// The same claim in front of every other element type.
	put := func(name string, head func(b *Buffer)) {
		var b Buffer
		head(&b)
		b.PutUint32(maxSliceLen)
		frames[name] = b.Bytes()
	}
	put("followers", func(b *Buffer) {
		b.PutUint8(uint8(TypeFollowers))
		b.PutUint8(uint8(TypeFollowers))
		b.PutProc(1)
		b.PutUint64(1)
	})
	put("batch", func(b *Buffer) { b.PutUint8(uint8(TypeBatch)) })
	put("commit cert", func(b *Buffer) {
		b.PutUint8(uint8(TypeCommitCert))
		b.PutUint64(1)
	})
	for name, frame := range frames {
		if _, err := Decode(frame); err == nil {
			t.Fatalf("%s: hostile frame decoded", name)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const runs = 100
		for i := 0; i < runs; i++ {
			Decode(frame)
		}
		runtime.ReadMemStats(&m1)
		if perDecode := (m1.TotalAlloc - m0.TotalAlloc) / runs; perDecode >= 1024 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d bytes, want < 1 KiB", name, len(frame), perDecode)
		}
	}
}

// TestMinElementSizes pins the lower bounds Reader.sliceLen relies on to the
// codec: each is exactly the encoding of the element's zero value. A
// bound above the real minimum would reject valid frames.
func TestMinElementSizes(t *testing.T) {
	size := func(enc func(b *Buffer)) int {
		var b Buffer
		enc(&b)
		return len(b.Bytes())
	}
	checks := []struct {
		name      string
		got, want int
	}{
		{"request", size((&Request{}).encodeBody), minRequestSize},
		{"prepare", size((&Prepare{}).encodeBody), minPrepareSize},
		{"commit", size((&Commit{}).encodeBody), minCommitSize},
		{"phase body", size((&TMPrecommit{}).encodeBody), minPhaseBodySize},
		{"log slot", 8 + size((&Prepare{}).encodeBody), minLogSlotSize},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: zero value encodes to %d bytes, bound says %d", c.name, c.got, c.want)
		}
	}
}

func TestInvalidBool(t *testing.T) {
	r := NewReader([]byte{2})
	if _, err := r.Bool(); err == nil {
		t.Error("Bool accepted byte 2")
	}
}

func TestSigBytesExcludeSignature(t *testing.T) {
	// Changing only the signature must not change SigBytes; changing a
	// covered field must.
	u := &Update{Owner: 3, Row: []uint64{1, 2}, Sig: []byte{1}}
	base := u.SigBytes()
	u.Sig = []byte{9, 9, 9}
	if !bytes.Equal(base, u.SigBytes()) {
		t.Error("Update.SigBytes covers the signature")
	}
	u.Row[0] = 7
	if bytes.Equal(base, u.SigBytes()) {
		t.Error("Update.SigBytes does not cover Row")
	}

	for _, m := range sampleMessages() {
		s, ok := m.(Signed)
		if !ok {
			continue
		}
		before := s.SigBytes()
		s.SetSignature([]byte("different signature"))
		if !bytes.Equal(before, s.SigBytes()) {
			t.Errorf("%s: SigBytes covers the signature field", m.Kind())
		}
	}
}

func TestSigBytesDomainSeparated(t *testing.T) {
	// A PBFT PREPARE and COMMIT vote with identical fields must not be
	// mutually replayable: their signed bytes must differ.
	pp := &PBFTPrepare{phaseBody{Replica: 2, View: 1, Slot: 5, Digest: []byte{1}}}
	pc := &PBFTCommit{phaseBody{Replica: 2, View: 1, Slot: 5, Digest: []byte{1}}}
	if bytes.Equal(pp.SigBytes(), pc.SigBytes()) {
		t.Error("PBFT prepare and commit votes share signed bytes (replayable)")
	}
	// Same for XPaxos PREPARE vs baseline PRE-PREPARE.
	req := Request{Client: 1, Seq: 1, Op: []byte("x")}
	xp := &Prepare{Leader: 1, View: 1, Slot: 1, Req: req}
	bp := &PrePrepare{Leader: 1, View: 1, Slot: 1, Req: req}
	if bytes.Equal(xp.SigBytes(), bp.SigBytes()) {
		t.Error("XPaxos PREPARE and baseline PRE-PREPARE share signed bytes")
	}
}

func TestUpdateClone(t *testing.T) {
	u := &Update{Owner: 1, Row: []uint64{1, 2, 3}, Sig: []byte{4}}
	c := u.Clone()
	c.Row[0] = 99
	c.Sig[0] = 99
	if u.Row[0] != 1 || u.Sig[0] != 4 {
		t.Error("Clone shares storage with original")
	}
}

func TestRequestEqual(t *testing.T) {
	a := &Request{Client: 1, Seq: 2, Op: []byte("op")}
	tests := []struct {
		b    *Request
		want bool
	}{
		{&Request{Client: 1, Seq: 2, Op: []byte("op")}, true},
		{&Request{Client: 2, Seq: 2, Op: []byte("op")}, false},
		{&Request{Client: 1, Seq: 3, Op: []byte("op")}, false},
		{&Request{Client: 1, Seq: 2, Op: []byte("other")}, false},
	}
	for _, tt := range tests {
		if got := a.Equal(tt.b); got != tt.want {
			t.Errorf("Equal(%v) = %v, want %v", tt.b, got, tt.want)
		}
	}
}

func TestUpdateRoundTripQuick(t *testing.T) {
	f := func(owner uint8, row []uint64, sig []byte) bool {
		in := &Update{Owner: ids.ProcessID(owner%32 + 1), Row: row, Sig: sig}
		out, err := Decode(Encode(in))
		if err != nil {
			return false
		}
		got, ok := out.(*Update)
		if !ok || got.Owner != in.Owner || len(got.Row) != len(in.Row) {
			return false
		}
		for i := range in.Row {
			if got.Row[i] != in.Row[i] {
				return false
			}
		}
		return bytes.Equal(got.Sig, in.Sig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	// The decoder faces hostile peers: arbitrary bytes must produce an
	// error or a valid message, never a panic or runaway allocation.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(200)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		// Bias the first byte toward valid type tags so the body
		// decoders actually run.
		if n > 0 && trial%2 == 0 {
			data[0] = byte(rng.Intn(int(TypeTMPrecommit)) + 1)
		}
		msg, err := Decode(data)
		if err == nil {
			// A parsed message must re-encode to the same bytes.
			if !bytes.Equal(Encode(msg), data) {
				t.Fatalf("re-encode mismatch for %v", data)
			}
		}
	}
}

func TestMutatedEncodingsNeverPanic(t *testing.T) {
	// Single-byte mutations of valid encodings exercise every decoder
	// branch boundary.
	rng := rand.New(rand.NewSource(2))
	for _, m := range sampleMessages() {
		base := Encode(m)
		for trial := 0; trial < 200; trial++ {
			data := append([]byte(nil), base...)
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
			if msg, err := Decode(data); err == nil {
				if !bytes.Equal(Encode(msg), data) {
					t.Fatalf("%s: re-encode mismatch after mutation", m.Kind())
				}
			}
		}
	}
}

func TestTypeString(t *testing.T) {
	if TypeUpdate.String() != "UPDATE" || TypeFollowers.String() != "FOLLOWERS" {
		t.Error("Type.String wrong for core types")
	}
	if Type(200).String() != "TYPE(200)" {
		t.Errorf("unknown type string = %q", Type(200).String())
	}
}

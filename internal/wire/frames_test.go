package wire

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// frameSamples is exactSizeSamples followed by every sample that
// carries a trace context, restamped with a non-zero one.
func frameSamples() []Message {
	ms := exactSizeSamples()
	tc := TraceContext{Trace: 1<<60 | 0xfeed, Span: 0xbeef}
	for _, m := range sampleMessages() {
		switch m := m.(type) {
		case *Batch:
			m.TC = tc
		case *Prepare:
			m.TC = tc
		case *Commit:
			m.TC = tc
		case *ViewChange:
			m.TC = tc
		case *NewView:
			m.TC = tc
		default:
			continue
		}
		ms = append(ms, m)
	}
	return ms
}

// sampleName names a sample by its kind, and an envelope by its inner
// kind too.
func sampleName(m Message) string {
	if env, ok := m.(*ShardEnvelope); ok {
		return m.Kind().String() + "/" + env.Inner.Kind().String()
	}
	return m.Kind().String()
}

// updateGolden rewrites path with got when UPDATE_GOLDEN is set, then
// returns the file's contents.
func updateGolden(t *testing.T, path, got string) string {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// TestFramesGolden pins whole frames — type tags, signed bodies,
// signatures, trace contexts, the unsigned kinds and the envelope
// framing — where sigbytes.golden pins only signed prefixes: an encoder
// and a decoder that drifted together would still pass every round trip.
// A frame longer than 512 bytes is pinned by its length and SHA-256.
// Regenerate only for a wire-format change
// (UPDATE_GOLDEN=1 go test ./internal/wire/).
func TestFramesGolden(t *testing.T) {
	var b strings.Builder
	for i, m := range frameSamples() {
		frame := Encode(m)
		rendered := hex.EncodeToString(frame)
		if len(frame) > 512 {
			sum := sha256.Sum256(frame)
			rendered = fmt.Sprintf("len=%d sha256=%x", len(frame), sum)
		}
		fmt.Fprintf(&b, "%02d %s %s\n", i, sampleName(m), rendered)
	}
	got := b.String()
	if want := updateGolden(t, filepath.Join("testdata", "frames.golden"), got); got != want {
		t.Errorf("frames moved:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// codecAllocs is one sample's allocation counts: Decode of its frame,
// AppendEncode into a buffer with room, and SigBytes (-1 when the kind
// is unsigned).
type codecAllocs struct{ decode, appendRoom, sigBytes int }

func measureAllocs(m Message) codecAllocs {
	frame := Encode(m)
	buf := make([]byte, 0, len(frame))
	a := codecAllocs{
		decode:     int(testing.AllocsPerRun(20, func() { Decode(frame) })),
		appendRoom: int(testing.AllocsPerRun(20, func() { AppendEncode(buf, m) })),
		sigBytes:   -1,
	}
	if s, ok := m.(Signed); ok {
		a.sigBytes = int(testing.AllocsPerRun(20, func() { s.SigBytes() }))
	}
	return a
}

// TestCodecAllocsPerKind is the per-kind allocation table:
// testdata/allocs.golden records the counts of every frame sample as a
// ceiling. A count above its line fails; a count below it is logged, so
// the table can be tightened (UPDATE_GOLDEN=1 go test ./internal/wire/).
func TestCodecAllocsPerKind(t *testing.T) {
	if raceDetector {
		t.Skip("allocation budgets assume sync.Pool keeps what it is given")
	}
	var b strings.Builder
	for i, m := range frameSamples() {
		a := measureAllocs(m)
		fmt.Fprintf(&b, "%02d %s %d %d %d\n", i, sampleName(m), a.decode, a.appendRoom, a.sigBytes)
	}
	got := b.String()
	want := updateGolden(t, filepath.Join("testdata", "allocs.golden"), got)
	gs, ws := bufio.NewScanner(strings.NewReader(got)), bufio.NewScanner(strings.NewReader(want))
	for gs.Scan() {
		if !ws.Scan() {
			t.Fatalf("allocs.golden ends before sample %q", gs.Text())
		}
		var gi, wi int
		var gname, wname string
		var g, w codecAllocs
		const line = "%d %s %d %d %d"
		fmt.Sscanf(gs.Text(), line, &gi, &gname, &g.decode, &g.appendRoom, &g.sigBytes)
		if _, err := fmt.Sscanf(ws.Text(), line, &wi, &wname, &w.decode, &w.appendRoom, &w.sigBytes); err != nil {
			t.Fatalf("allocs.golden line %q: %v", ws.Text(), err)
		}
		if gi != wi || gname != wname {
			t.Fatalf("sample %02d %s is %02d %s in allocs.golden", gi, gname, wi, wname)
		}
		if g.decode > w.decode || g.appendRoom > w.appendRoom || g.sigBytes > w.sigBytes {
			t.Errorf("%02d %s: allocations decode/append/sigbytes %d/%d/%d, ceiling %d/%d/%d",
				gi, gname, g.decode, g.appendRoom, g.sigBytes, w.decode, w.appendRoom, w.sigBytes)
		} else if g != w {
			t.Logf("%02d %s: allocations %d/%d/%d, below the ceiling %d/%d/%d",
				gi, gname, g.decode, g.appendRoom, g.sigBytes, w.decode, w.appendRoom, w.sigBytes)
		}
	}
	if ws.Scan() {
		t.Errorf("allocs.golden has a line past the last sample: %q", ws.Text())
	}
}

// codecBenchRequests is a batch of 8 set operations.
func codecBenchRequests() []Request {
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Client: 100, Seq: uint64(i + 1), Op: []byte(fmt.Sprintf("set key-%d v%d", 1000+i, 40000+i))}
	}
	return reqs
}

// codecBenchMessages are the shapes the commit and suspicion paths
// move: an 8-request PREPARE and the COMMIT embedding it, an n=64
// suspicion row, a forwarded batch of 8 and an enveloped COMMIT, each
// under an ed25519-sized signature where signed.
func codecBenchMessages() []struct {
	name string
	m    Message
} {
	reqs := codecBenchRequests()
	prep := Prepare{Leader: 1, View: 2, Slot: 4242, Req: reqs[0], Rest: reqs[1:], Sig: make([]byte, 64)}
	commit := &Commit{Replica: 2, View: 2, Slot: 4242, HasPrep: true, Prep: prep, Sig: make([]byte, 64)}
	return []struct {
		name string
		m    Message
	}{
		{"prepare8", &prep},
		{"commit8", commit},
		{"update64", &Update{Owner: 7, Row: make([]uint64, 64), Sig: make([]byte, 64)}},
		{"batch8", &Batch{Reqs: reqs}},
		{"env-commit8", &ShardEnvelope{Shard: 3, Inner: commit}},
	}
}

// BenchmarkCodec times the codec layer alone: Encode, Decode and, for
// signed kinds, SigBytes of each codecBenchMessages shape.
//
//	go test -run '^$' -bench BenchmarkCodec -cpu 1 ./internal/wire/
func BenchmarkCodec(b *testing.B) {
	for _, s := range codecBenchMessages() {
		m := s.m
		b.Run("encode/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Encode(m)
			}
		})
		frame := Encode(m)
		b.Run("decode/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
		if sg, ok := m.(Signed); ok {
			b.Run("sigbytes/"+s.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sg.SigBytes()
				}
			})
		}
	}
}

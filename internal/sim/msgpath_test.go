package sim

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/wire"
)

// boxedQueue is the event queue as it was before it was typed:
// container/heap over the same (at, seq) order. It is the reference the
// differential test pops against.
type boxedQueue []*event

func (q boxedQueue) Len() int { return len(q) }
func (q boxedQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q boxedQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *boxedQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *boxedQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// TestEventQueueMatchesContainerHeap drives the typed queue and the
// container/heap one with the same 10⁵ seeded events — clustered times
// so ties on `at` are common, pushes and pops interleaved the way a run
// interleaves them — and requires the identical pop sequence.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	const events = 100_000
	rng := rand.New(rand.NewSource(7))
	var typed eventQueue
	var boxed boxedQueue
	pushed, popped := 0, 0
	now := time.Duration(0)
	pop := func() {
		a, b := typed.pop(), heap.Pop(&boxed).(*event)
		if a != b {
			t.Fatalf("pop %d: typed queue gave (at=%v seq=%d), container/heap gave (at=%v seq=%d)",
				popped, a.at, a.seq, b.at, b.seq)
		}
		if a.at < now {
			t.Fatalf("pop %d: time went backwards (%v after %v)", popped, a.at, now)
		}
		now = a.at
		popped++
	}
	for pushed < events {
		for burst := 1 + rng.Intn(64); burst > 0 && pushed < events; burst-- {
			ev := &event{at: now + time.Duration(rng.Intn(8))*time.Millisecond, seq: uint64(pushed)}
			typed.push(ev)
			heap.Push(&boxed, ev)
			pushed++
		}
		for drain := rng.Intn(64); drain > 0 && len(typed) > 0; drain-- {
			pop()
		}
		if len(typed) > 0 && typed.peek() != boxed[0] {
			t.Fatal("peek disagrees with the reference heap's root")
		}
	}
	for len(typed) > 0 {
		pop()
	}
	if popped != events || len(boxed) != 0 {
		t.Fatalf("popped %d of %d events, reference holds %d", popped, events, len(boxed))
	}
}

// recorder logs every delivery as "from→to@time:frame".
type recorder struct {
	env runtime.Env
	log *[]string
}

func (r *recorder) Init(env runtime.Env) { r.env = env }
func (r *recorder) Receive(from ids.ProcessID, m wire.Message) {
	*r.log = append(*r.log, fmt.Sprintf("%s→%s@%v:%x", from, r.env.ID(), r.env.Now(), wire.Encode(m)))
}

// hostileFilter hands out every kind of verdict as a deterministic
// function of the recipient: drops, delays, duplicates, in-place and
// reallocating mutations, and the Duplicate+Mutate combination.
func hostileFilter(from, to ids.ProcessID, m wire.Message, now time.Duration) Verdict {
	flipRow := func(frame []byte) []byte {
		frame[len(frame)-8] ^= 0x40 // in place, inside an UPDATE's row: still decodes
		return frame
	}
	switch int(to) % 7 {
	case 1:
		return Verdict{Drop: true}
	case 2:
		return Verdict{Delay: 3 * time.Millisecond, Duplicate: true}
	case 3:
		return Verdict{Mutate: flipRow}
	case 4:
		return Verdict{Duplicate: true, Mutate: flipRow}
	case 5:
		return Verdict{Mutate: func(frame []byte) []byte {
			return wire.MutateFrame(rand.New(rand.NewSource(int64(to))), append([]byte(nil), frame...))
		}}
	}
	return Verdict{}
}

func sampleUpdate(stamp uint64) *wire.Update {
	row := make([]uint64, 16)
	for i := range row {
		row[i] = stamp + uint64(i)
	}
	return &wire.Update{Owner: 2, Row: row, Sig: []byte{0}}
}

// TestBroadcastFramesAreOwnedPerDelivery: every pending delivery owns
// its bytes. An in-place Mutate for one recipient must not show up at
// the next one, and no frame may
// return to wire's pool while a delivery — duplicates included — can
// still read it: between the broadcast and the deliveries the pool is
// churned hard enough that any frame recycled early would be
// overwritten.
func TestBroadcastFramesAreOwnedPerDelivery(t *testing.T) {
	cfg := ids.MustConfig(16, 5)
	var log []string
	nodes := make(map[ids.ProcessID]runtime.Node, cfg.N)
	for _, p := range cfg.All() {
		nodes[p] = &recorder{log: &log}
	}
	net := NewNetwork(cfg, nodes, Options{
		Latency: ConstantLatency(time.Millisecond),
		Filter:  FilterFunc(hostileFilter),
	})
	up := sampleUpdate(100)
	runtime.Broadcast(net.Env(2), up, true)

	junk := &wire.Update{Owner: 9, Row: make([]uint64, 16), Sig: []byte{0xff}}
	for i := range junk.Row {
		junk.Row[i] = ^uint64(0)
	}
	for i := 0; i < 256; i++ {
		held := make([][]byte, 32)
		for j := range held {
			held[j] = wire.EncodePooled(junk)
		}
		for _, frame := range held {
			wire.Recycle(frame)
		}
	}
	net.Run(time.Second)

	pristine := wire.Encode(up)
	flipped := append([]byte(nil), pristine...)
	flipped[len(flipped)-8] ^= 0x40
	want := map[int][][]byte{ // recipient%7 → frames it must see
		0: {pristine}, 6: {pristine},
		1: nil,
		2: {pristine, pristine},
		3: {flipped},
		4: {flipped, flipped},
	}
	got := make(map[ids.ProcessID][][]byte)
	for _, entry := range log {
		var from, to int
		var at string
		var frame []byte
		if _, err := fmt.Sscanf(entry, "p%d→p%d@%s", &from, &to, &at); err != nil {
			t.Fatalf("unparseable log entry %q: %v", entry, err)
		}
		if _, err := fmt.Sscanf(entry[bytes.LastIndexByte([]byte(entry), ':')+1:], "%x", &frame); err != nil {
			t.Fatalf("unparseable frame in %q: %v", entry, err)
		}
		got[ids.ProcessID(to)] = append(got[ids.ProcessID(to)], frame)
	}
	for _, p := range cfg.All() {
		expect, checked := want[int(p)%7]
		if !checked {
			continue // the reallocating mutant: any frame or none
		}
		if len(got[p]) != len(expect) {
			t.Errorf("%s received %d frames, want %d", p, len(got[p]), len(expect))
			continue
		}
		for i := range expect {
			if !bytes.Equal(got[p][i], expect[i]) {
				t.Errorf("%s frame %d:\n got %x\nwant %x", p, i, got[p][i], expect[i])
			}
		}
	}
}

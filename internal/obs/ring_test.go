package obs

import (
	"reflect"
	"testing"
)

// TestRing covers the three things the bus and the span tracer rely
// on: the backing array grows lazily and never past
// the bound, the ring wraps keeping the newest values in order, and
// Since reports what a reader that fell behind missed.
func TestRing(t *testing.T) {
	const limit = 100
	r := NewRing[int](limit)
	if vals, missed := r.Since(0); vals != nil || missed != 0 {
		t.Fatalf("empty ring: Since(0) = %v, %d", vals, missed)
	}
	if cap(r.buf) != 0 {
		t.Fatalf("empty ring allocated %d slots", cap(r.buf))
	}

	for i := 1; i <= 64; i++ {
		if seq := r.Push(i); seq != uint64(i) {
			t.Fatalf("Push #%d returned seq %d", i, seq)
		}
	}
	if cap(r.buf) != 64 {
		t.Fatalf("after 64 pushes cap = %d, want 64", cap(r.buf))
	}
	// Doubling would give 128; the bound clamps it.
	r.Push(65)
	if cap(r.buf) != limit {
		t.Fatalf("after 65 pushes cap = %d, want the bound %d", cap(r.buf), limit)
	}

	for i := 66; i <= 250; i++ {
		r.Push(i)
	}
	if cap(r.buf) != limit || r.Len() != limit {
		t.Fatalf("full ring: cap %d len %d, want both %d", cap(r.buf), r.Len(), limit)
	}
	if r.Total() != 250 || r.Dropped() != 150 {
		t.Fatalf("Total %d Dropped %d, want 250 and 150", r.Total(), r.Dropped())
	}

	want := make([]int, 0, limit)
	for i := 151; i <= 250; i++ {
		want = append(want, i)
	}
	if vals, missed := r.Since(0); !reflect.DeepEqual(vals, want) || missed != 150 {
		t.Fatalf("Since(0) after wrap = %v (missed %d), want 151..250 (missed 150)", vals, missed)
	}
	if vals, missed := r.Since(140); !reflect.DeepEqual(vals, want) || missed != 10 {
		t.Fatalf("Since(140) = %d values, missed %d; want 100 values, missed 10", len(vals), missed)
	}
	if vals, missed := r.Since(245); !reflect.DeepEqual(vals, []int{246, 247, 248, 249, 250}) || missed != 0 {
		t.Fatalf("Since(245) = %v, missed %d", vals, missed)
	}
	if vals, missed := r.Since(250); vals != nil || missed != 0 {
		t.Fatalf("Since(latest) = %v, %d; want nothing", vals, missed)
	}
}

package ids

import (
	"testing"
)

func newBitsetN(n int) []uint64 { return make([]uint64, WordsFor(n)) }

func TestBitsetBasics(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 1024} {
		b := newBitsetN(n)
		if OnesCount(b) != 0 {
			t.Fatalf("n=%d: fresh bitset not empty", n)
		}
		for _, i := range []int{0, n / 2, n - 1} {
			SetBit(b, i)
			if !TestBit(b, i) {
				t.Fatalf("n=%d: bit %d not set", n, i)
			}
		}
		want := map[int]bool{0: true, n / 2: true, n - 1: true}
		if OnesCount(b) != len(want) {
			t.Fatalf("n=%d: onesCount %d want %d", n, OnesCount(b), len(want))
		}
		for i := 0; i < n; i++ {
			if TestBit(b, i) != want[i] {
				t.Fatalf("n=%d: test(%d) = %v", n, i, TestBit(b, i))
			}
		}
		ClearBit(b, n/2)
		if n > 2 && TestBit(b, n/2) {
			t.Fatalf("n=%d: clear failed", n)
		}
	}
}

func TestBitsetNextSetAndClear(t *testing.T) {
	n := 200
	b := newBitsetN(n)
	for _, i := range []int{3, 63, 64, 100, 199} {
		SetBit(b, i)
	}
	wantSets := []int{3, 63, 64, 100, 199}
	var got []int
	for i := NextSetBit(b, 0, n); i < n; i = NextSetBit(b, i+1, n) {
		got = append(got, i)
	}
	if len(got) != len(wantSets) {
		t.Fatalf("nextSetBit walked %v, want %v", got, wantSets)
	}
	for i := range got {
		if got[i] != wantSets[i] {
			t.Fatalf("nextSetBit walked %v, want %v", got, wantSets)
		}
	}
	// nextClearBit over a fully-set prefix.
	full := newBitsetN(n)
	for i := 0; i < 130; i++ {
		SetBit(full, i)
	}
	if got := NextClearBit(full, 0, n); got != 130 {
		t.Fatalf("nextClearBit(0) = %d, want 130", got)
	}
	if got := NextClearBit(full, 130, n); got != 130 {
		t.Fatalf("nextClearBit(130) = %d, want 130", got)
	}
	allSet := newBitsetN(n)
	for i := 0; i < n; i++ {
		SetBit(allSet, i)
	}
	if got := NextClearBit(allSet, 0, n); got != n {
		t.Fatalf("nextClearBit on full set = %d, want %d", got, n)
	}
	if got := NextSetBit(b, n, n); got != n {
		t.Fatalf("nextSetBit(from=n) = %d, want %d", got, n)
	}
}

// FuzzBitsetKernels cross-checks every bitset kernel against a naive
// boolean-slice model. The byte input encodes (n, a, b) with bits drawn
// from the data; the seed corpus covers word boundaries.
func FuzzBitsetKernels(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{63, 0xff, 0x0f})
	f.Add([]byte{64, 0xaa, 0x55, 0xff})
	f.Add([]byte{65, 0x00, 0xff, 0x13, 0x37})
	f.Add([]byte{127, 0x80, 0x01, 0xfe, 0x7f, 0x99})
	f.Add([]byte{128, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe})
	f.Add([]byte{129, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80})
	f.Add([]byte{255, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])
		if n == 0 {
			n = 1
		}
		rest := data[1:]
		a, b := newBitsetN(n), newBitsetN(n)
		am, bm := make([]bool, n), make([]bool, n)
		// Deterministically scatter the remaining bytes into both sets.
		for i, by := range rest {
			for j := 0; j < 8; j++ {
				idx := (i*8 + j) % n
				if by&(1<<uint(j)) != 0 {
					if i%2 == 0 {
						SetBit(a, idx)
						am[idx] = true
					} else {
						SetBit(b, idx)
						bm[idx] = true
					}
				}
			}
		}
		check := func(name string, got []uint64, model []bool) {
			t.Helper()
			count := 0
			for i := 0; i < n; i++ {
				if TestBit(got, i) != model[i] {
					t.Fatalf("%s: bit %d = %v, model %v (n=%d)", name, i, TestBit(got, i), model[i], n)
				}
				if model[i] {
					count++
				}
			}
			if OnesCount(got) != count {
				t.Fatalf("%s: onesCount %d, model %d", name, OnesCount(got), count)
			}
		}
		check("a", a, am)
		check("b", b, bm)

		// or / and / andNot against the model.
		or := newBitsetN(n)
		copy(or, a)
		OrWords(or, b)
		and := newBitsetN(n)
		copy(and, a)
		AndWords(and, b)
		andNot := newBitsetN(n)
		copy(andNot, a)
		AndNotWords(andNot, b)
		orM, andM, andNotM := make([]bool, n), make([]bool, n), make([]bool, n)
		intersectsM, anyAndNotM := false, false
		for i := 0; i < n; i++ {
			orM[i] = am[i] || bm[i]
			andM[i] = am[i] && bm[i]
			andNotM[i] = am[i] && !bm[i]
			intersectsM = intersectsM || andM[i]
			anyAndNotM = anyAndNotM || andNotM[i]
		}
		check("or", or, orM)
		check("and", and, andM)
		check("andNot", andNot, andNotM)
		if Intersects(a, b) != intersectsM {
			t.Fatalf("intersects = %v, model %v", Intersects(a, b), intersectsM)
		}
		if AnyAndNot(a, b) != anyAndNotM {
			t.Fatalf("anyAndNot = %v, model %v", AnyAndNot(a, b), anyAndNotM)
		}

		// Iterator kernels: walk both directions from every offset.
		for from := 0; from <= n; from++ {
			wantSet, wantClear := n, n
			for i := from; i < n; i++ {
				if am[i] && wantSet == n {
					wantSet = i
				}
				if !am[i] && wantClear == n {
					wantClear = i
				}
			}
			if got := NextSetBit(a, from, n); got != wantSet {
				t.Fatalf("nextSetBit(%d) = %d, model %d", from, got, wantSet)
			}
			if got := NextClearBit(a, from, n); got != wantClear {
				t.Fatalf("nextClearBit(%d) = %d, model %d", from, got, wantClear)
			}
		}
	})
}

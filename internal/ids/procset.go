package ids

import "math/bits"

// MaxN bounds the size of Π: a ProcSet holds p_1..p_MaxN, and
// Config.Validate rejects larger systems.
const MaxN = 1024

// The word kernels below are the one bit-vector implementation of the
// library. They treat a []uint64 as a little-endian multi-word bit
// vector — bit i lives in word i/64 at position i%64 and stands for
// p_{i+1} — and assume operands of equal length. ProcSet runs on them
// over its fixed MaxN bits; the suspect graph runs them over rows of
// WordsFor(n) words, so its branch-and-bound inner loops touch only the
// words n needs. They must stay branch-light, allocation-free and
// small enough to inline.

// WordsFor returns the number of 64-bit words needed for n bits.
func WordsFor(n int) int { return (n + 63) >> 6 }

// TestBit reports whether bit i of b is set.
func TestBit(b []uint64, i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// SetBit sets bit i of b.
func SetBit(b []uint64, i int) { b[i>>6] |= 1 << uint(i&63) }

// ClearBit clears bit i of b.
func ClearBit(b []uint64, i int) { b[i>>6] &^= 1 << uint(i&63) }

// OrWords sets b |= o.
func OrWords(b, o []uint64) {
	for i, w := range o {
		b[i] |= w
	}
}

// AndWords sets b &= o.
func AndWords(b, o []uint64) {
	for i, w := range o {
		b[i] &= w
	}
}

// AndNotWords sets b &^= o.
func AndNotWords(b, o []uint64) {
	for i, w := range o {
		b[i] &^= w
	}
}

// Intersects reports whether b & o has any bit set.
func Intersects(b, o []uint64) bool {
	for i, w := range o {
		if b[i]&w != 0 {
			return true
		}
	}
	return false
}

// AnyAndNot reports whether b &^ o has any bit set.
func AnyAndNot(b, o []uint64) bool {
	for i, w := range o {
		if b[i]&^w != 0 {
			return true
		}
	}
	return false
}

// OnesCount returns the number of set bits of b.
func OnesCount(b []uint64) int {
	total := 0
	for _, w := range b {
		total += bits.OnesCount64(w)
	}
	return total
}

// NextSetBit returns the index of the first set bit of b at or after
// from, or n if none exists below n.
func NextSetBit(b []uint64, from, n int) int {
	if from >= n {
		return n
	}
	w := from >> 6
	word := b[w] >> uint(from&63)
	if word != 0 {
		return min(from+bits.TrailingZeros64(word), n)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return min(w<<6+bits.TrailingZeros64(b[w]), n)
		}
	}
	return n
}

// NextClearBit returns the index of the first clear bit of b at or
// after from, or n if none exists below n.
func NextClearBit(b []uint64, from, n int) int {
	if from >= n {
		return n
	}
	w := from >> 6
	word := ^b[w] >> uint(from&63)
	if word != 0 {
		return min(from+bits.TrailingZeros64(word), n)
	}
	for w++; w < len(b); w++ {
		if ^b[w] != 0 {
			return min(w<<6+bits.TrailingZeros64(^b[w]), n)
		}
	}
	return n
}

// ProcSet is a set of process identifiers drawn from p_1..p_MaxN, held
// as a fixed-size bitset. It is a plain value: the zero value is the
// empty set, ready for use; assignment copies the set; and no
// operation allocates. Mutators take a pointer receiver, so mutating a
// set stored in a map or returned by a call takes a read-modify-write.
type ProcSet struct {
	w [MaxN / 64]uint64
}

// NewProcSet returns the set of the given processes.
func NewProcSet(ps ...ProcessID) ProcSet { return FromSlice(ps) }

// FromSlice builds a set from a slice of identifiers. Like Add, it
// panics on an identifier outside p_1..p_MaxN.
func FromSlice(ps []ProcessID) ProcSet {
	var s ProcSet
	for _, p := range ps {
		s.Add(p)
	}
	return s
}

// FirstN returns {p_1, ..., p_n}, the whole of Π for a system of n
// processes; n is clamped to [0, MaxN].
func FirstN(n int) ProcSet {
	var s ProcSet
	n = min(max(n, 0), MaxN)
	for i := 0; i < n>>6; i++ {
		s.w[i] = ^uint64(0)
	}
	if n&63 != 0 {
		s.w[n>>6] = 1<<uint(n&63) - 1
	}
	return s
}

// Add inserts p into the set. It panics if p is outside p_1..p_MaxN.
func (s *ProcSet) Add(p ProcessID) { SetBit(s.w[:], int(p)-1) }

// Remove deletes p from the set; identifiers outside p_1..p_MaxN are
// never members, so removing one is a no-op.
func (s *ProcSet) Remove(p ProcessID) {
	if p.Valid(MaxN) {
		ClearBit(s.w[:], int(p)-1)
	}
}

// Contains reports whether p is in the set.
func (s ProcSet) Contains(p ProcessID) bool {
	return p.Valid(MaxN) && TestBit(s.w[:], int(p)-1)
}

// Len returns the number of processes in the set.
func (s ProcSet) Len() int { return OnesCount(s.w[:]) }

// Empty reports whether the set has no members.
func (s ProcSet) Empty() bool { return s == ProcSet{} }

// Equal reports whether two sets have exactly the same members.
func (s ProcSet) Equal(o ProcSet) bool { return s == o }

// SubsetOf reports whether every member of s is in o.
func (s ProcSet) SubsetOf(o ProcSet) bool { return !AnyAndNot(s.w[:], o.w[:]) }

// Union returns the members of both sets.
func (s ProcSet) Union(o ProcSet) ProcSet {
	OrWords(s.w[:], o.w[:])
	return s
}

// Intersect returns the members common to both sets.
func (s ProcSet) Intersect(o ProcSet) ProcSet {
	AndWords(s.w[:], o.w[:])
	return s
}

// Minus returns the members of s that are not in o.
func (s ProcSet) Minus(o ProcSet) ProcSet {
	AndNotWords(s.w[:], o.w[:])
	return s
}

// Next returns the smallest member greater than p, or None when there
// is none. Next(None) is the smallest member, so the members iterate in
// increasing order, without allocating, as
//
//	for p := s.Next(ids.None); p != ids.None; p = s.Next(p) { ... }
func (s ProcSet) Next(p ProcessID) ProcessID {
	i := NextSetBit(s.w[:], max(int(p), 0), MaxN)
	if i == MaxN {
		return None
	}
	return ProcessID(i + 1)
}

// Min returns the smallest identifier in the set, or None if empty.
func (s ProcSet) Min() ProcessID { return s.Next(None) }

// Members returns the members in increasing identifier order.
func (s ProcSet) Members() []ProcessID {
	out := make([]ProcessID, 0, s.Len())
	for p := s.Next(None); p != None; p = s.Next(p) {
		out = append(out, p)
	}
	return out
}

// String renders the set in sorted paper notation, e.g. "{p1,p3,p4}".
func (s ProcSet) String() string {
	b := append(make([]byte, 0, 4*s.Len()+2), '{')
	for p := s.Next(None); p != None; p = s.Next(p) {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = p.appendTo(b)
	}
	return string(append(b, '}'))
}

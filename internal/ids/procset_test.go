package ids

import (
	"reflect"
	"sort"
	"testing"
)

// mapSet is the map-backed process set ProcSet replaced, kept as the
// reference for the differential fuzz test. It is a reference type:
// clone copies it.
type mapSet map[ProcessID]struct{}

func (m mapSet) clone() mapSet {
	c := make(mapSet, len(m))
	for p := range m {
		c[p] = struct{}{}
	}
	return c
}

func (m mapSet) sorted() []ProcessID {
	out := make([]ProcessID, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m mapSet) equal(o mapSet) bool { return reflect.DeepEqual(m.sorted(), o.sorted()) }

// setSizes are the system sizes the differential test runs at: the
// smallest, word boundaries and MaxN.
var setSizes = []int{1, 4, 63, 64, 65, MaxN}

// FuzzProcSet runs a byte-driven sequence of set operations on two
// ProcSets and on two reference map sets side by side, and requires
// after every step that both hold the same members, in the same order,
// with the same rendering. Copy-then-mutate steps require value
// semantics: mutating a copy must leave the original untouched.
//
// data[0] picks n from setSizes; each following triple is one step:
// an operation byte and two bytes naming a process of Π.
func FuzzProcSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{2, 0, 62, 0, 0, 63, 0, 7, 0, 0})
	f.Add([]byte{3, 0, 63, 0, 0, 64, 0, 1, 1, 0, 2, 0, 0, 3, 0, 0, 6, 9, 0})
	f.Add([]byte{4, 0, 64, 0, 5, 64, 0, 0, 1, 0, 4, 0, 0, 7, 2, 0, 8, 64, 0})
	f.Add([]byte{5, 0, 255, 3, 0, 0, 0, 5, 0, 0, 0, 1, 2, 2, 0, 0, 6, 255, 3, 9, 0, 0})
	f.Fuzz(fuzzProcSetOnce)
}

// fuzzProcSetOnce is FuzzProcSet's body.
func fuzzProcSetOnce(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	n := setSizes[int(data[0])%len(setSizes)]
	var a, b ProcSet
	ra, rb := mapSet{}, mapSet{}
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		p := ProcessID((int(data[1])|int(data[2])<<8)%n + 1)
		switch data[0] % 10 {
		case 0:
			a.Add(p)
			ra[p] = struct{}{}
		case 1:
			a.Remove(p)
			delete(ra, p)
		case 2:
			a = a.Union(b)
			for q := range rb {
				ra[q] = struct{}{}
			}
		case 3:
			a = a.Intersect(b)
			for q := range ra {
				if _, ok := rb[q]; !ok {
					delete(ra, q)
				}
			}
		case 4:
			a = a.Minus(b)
			for q := range rb {
				delete(ra, q)
			}
		case 5:
			a, b = b, a
			ra, rb = rb, ra
		case 6:
			// A copy is a copy: mutating it leaves a as it was.
			c, rc := a, ra.clone()
			c.Add(p)
			c.Remove(p%ProcessID(n) + 1)
			rc[p] = struct{}{}
			delete(rc, p%ProcessID(n)+1)
			requireSame(t, "copy", c, rc)
		case 7:
			// b takes a copy of a, then a moves on alone.
			b, rb = a, ra.clone()
			a.Add(p)
			ra[p] = struct{}{}
		case 8:
			// Set algebra returns new values: its operands stay.
			before, rbefore := a, ra.clone()
			_ = a.Union(b)
			_ = a.Intersect(b)
			_ = a.Minus(b)
			requireSame(t, "operand", a, rbefore)
			if a != before {
				t.Fatal("set algebra changed its receiver")
			}
		case 9:
			// Identifiers outside p_1..p_MaxN are never members.
			a.Remove(None)
			a.Remove(MaxN + 1)
			if a.Contains(None) || a.Contains(-1) || a.Contains(MaxN+1) {
				t.Fatal("Contains reports an identifier outside p_1..p_MaxN")
			}
		}
		requireSame(t, "a", a, ra)
		requireSame(t, "b", b, rb)
		if got, want := a.Equal(b), ra.equal(rb); got != want {
			t.Fatalf("Equal = %v, reference %v (a=%s b=%s)", got, want, a, b)
		}
		if got, want := a.SubsetOf(b), a.Minus(b).Empty(); got != want {
			t.Fatalf("SubsetOf = %v, Minus says %v", got, want)
		}
		if got, want := a.Contains(p), has(ra, p); got != want {
			t.Fatalf("Contains(%s) = %v, reference %v", p, got, want)
		}
	}
}

func has(m mapSet, p ProcessID) bool {
	_, ok := m[p]
	return ok
}

// requireSame fails unless s and the reference hold the same members:
// Len, Empty, Min, iteration, Members and String all agree.
func requireSame(t *testing.T, name string, s ProcSet, ref mapSet) {
	t.Helper()
	want := ref.sorted()
	var walked []ProcessID
	for p := s.Next(None); p != None; p = s.Next(p) {
		walked = append(walked, p)
	}
	if len(walked) != len(want) || len(want) > 0 && !reflect.DeepEqual(walked, want) {
		t.Fatalf("%s: iteration %v, reference %v", name, walked, want)
	}
	if got := s.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Members %v, reference %v", name, got, want)
	}
	if s.Len() != len(want) || s.Empty() != (len(want) == 0) {
		t.Fatalf("%s: Len %d Empty %v, reference has %d", name, s.Len(), s.Empty(), len(want))
	}
	wantMin := None
	if len(want) > 0 {
		wantMin = want[0]
	}
	if s.Min() != wantMin {
		t.Fatalf("%s: Min %s, reference %s", name, s.Min(), wantMin)
	}
	if got, exp := s.String(), string(appendMembers(nil, want)); got != exp {
		t.Fatalf("%s: String %q, reference %q", name, got, exp)
	}
}

// TestProcSetDifferential runs FuzzProcSet's steps on seeded random
// inputs at every size, so plain go test covers long sequences too.
func TestProcSetDifferential(t *testing.T) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return byte(state)
	}
	for trial := 0; trial < 60; trial++ {
		data := []byte{byte(trial)}
		for i := 0; i < 3*400; i++ {
			data = append(data, next())
		}
		fuzzProcSetOnce(t, data)
	}
}

// TestFirstN: FirstN(n) is {p_1..p_n}, clamped to [0, MaxN].
func TestFirstN(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 63, 64, 65, 1000, MaxN, MaxN + 5} {
		want := mapSet{}
		for p := 1; p <= min(max(n, 0), MaxN); p++ {
			want[ProcessID(p)] = struct{}{}
		}
		requireSame(t, "FirstN", FirstN(n), want)
	}
}

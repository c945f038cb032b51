// Package ids defines process identifiers, process sets and the quorum
// arithmetic used throughout the library.
//
// The paper assumes a fixed set Π = {p_1, ..., p_n} of processes ordered
// by unique identifiers. Identifiers are 1-based, matching the paper's
// notation: the "default quorum" is {p_1, ..., p_q} and the default
// leader is p_1.
package ids

import (
	"fmt"
	"sort"
	"strconv"
)

// ProcessID identifies a process in Π. IDs are 1-based; 0 is reserved as
// the zero value meaning "no process".
type ProcessID int

// None is the zero ProcessID, used where no process applies.
const None ProcessID = 0

// String returns the paper-style name of the process, e.g. "p3".
func (p ProcessID) String() string {
	if p == None {
		return "p?"
	}
	return "p" + strconv.Itoa(int(p))
}

// appendTo appends the paper-style name of p to b. The set and quorum
// renderings build their whole string with it in one buffer: a QUORUM
// event formats one per process per quorum change.
func (p ProcessID) appendTo(b []byte) []byte {
	if p == None {
		return append(b, "p?"...)
	}
	return strconv.AppendInt(append(b, 'p'), int64(p), 10)
}

// appendMembers appends ps in paper set notation, e.g. "{p1,p3,p4}".
func appendMembers(b []byte, ps []ProcessID) []byte {
	b = append(b, '{')
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = p.appendTo(b)
	}
	return append(b, '}')
}

// Valid reports whether p is a legal identifier in a system of n processes.
func (p ProcessID) Valid(n int) bool {
	return p >= 1 && int(p) <= n
}

// Config captures the replication parameters of a system: the total
// number of processes n, the failure threshold f, and the quorum size
// q = n − f. The paper assumes f + q = n and n − f > f (a majority of
// processes is correct).
type Config struct {
	N int // total number of processes in Π
	F int // maximum number of arbitrary (Byzantine) failures
}

// NewConfig validates and returns a Config. It enforces the paper's
// system-model assumptions: n ≥ 1, f ≥ 0 and n − f > f.
func NewConfig(n, f int) (Config, error) {
	c := Config{N: n, F: f}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// MustConfig is NewConfig that panics on invalid parameters. Intended
// for tests and examples with compile-time-known parameters.
func MustConfig(n, f int) Config {
	c, err := NewConfig(n, f)
	if err != nil {
		panic(err)
	}
	return c
}

// Validate checks the system-model assumptions.
func (c Config) Validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("ids: need at least one process, got n=%d", c.N)
	case c.F < 0:
		return fmt.Errorf("ids: failure threshold must be non-negative, got f=%d", c.F)
	case c.N-c.F <= c.F:
		return fmt.Errorf("ids: need a correct majority (n-f > f), got n=%d f=%d", c.N, c.F)
	}
	return nil
}

// Q returns the quorum size q = n − f.
func (c Config) Q() int { return c.N - c.F }

// LeaderCentric reports whether the configuration satisfies the
// Follower Selection assumption |Π| > 3f (Section VIII).
func (c Config) LeaderCentric() bool { return c.N > 3*c.F }

// All returns Π as a sorted slice {p_1, ..., p_n}.
func (c Config) All() []ProcessID {
	out := make([]ProcessID, c.N)
	for i := range out {
		out[i] = ProcessID(i + 1)
	}
	return out
}

// DefaultQuorum returns the paper's initial quorum {p_1, ..., p_q}.
func (c Config) DefaultQuorum() ProcSet {
	s := NewProcSet()
	for i := 1; i <= c.Q(); i++ {
		s.Add(ProcessID(i))
	}
	return s
}

// String renders the configuration compactly, e.g. "n=7 f=2 q=5".
func (c Config) String() string {
	return fmt.Sprintf("n=%d f=%d q=%d", c.N, c.F, c.Q())
}

// ProcSet is a set of process identifiers. The zero value is not ready
// for use; construct with NewProcSet or FromSlice.
type ProcSet struct {
	m map[ProcessID]struct{}
}

// NewProcSet returns an empty set containing the given processes.
func NewProcSet(ps ...ProcessID) ProcSet {
	s := ProcSet{m: make(map[ProcessID]struct{}, len(ps))}
	for _, p := range ps {
		s.m[p] = struct{}{}
	}
	return s
}

// FromSlice builds a set from a slice of identifiers.
func FromSlice(ps []ProcessID) ProcSet {
	return NewProcSet(ps...)
}

// Add inserts p into the set.
func (s ProcSet) Add(p ProcessID) { s.m[p] = struct{}{} }

// Remove deletes p from the set.
func (s ProcSet) Remove(p ProcessID) { delete(s.m, p) }

// Contains reports whether p is in the set.
func (s ProcSet) Contains(p ProcessID) bool {
	_, ok := s.m[p]
	return ok
}

// Len returns the number of processes in the set.
func (s ProcSet) Len() int { return len(s.m) }

// Empty reports whether the set has no members.
func (s ProcSet) Empty() bool { return len(s.m) == 0 }

// Sorted returns the members in increasing identifier order.
func (s ProcSet) Sorted() []ProcessID {
	out := make([]ProcessID, 0, len(s.m))
	for p := range s.m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns an independent copy of the set.
func (s ProcSet) Clone() ProcSet {
	c := ProcSet{m: make(map[ProcessID]struct{}, len(s.m))}
	for p := range s.m {
		c.m[p] = struct{}{}
	}
	return c
}

// Equal reports whether two sets have exactly the same members.
func (s ProcSet) Equal(o ProcSet) bool {
	if len(s.m) != len(o.m) {
		return false
	}
	for p := range s.m {
		if !o.Contains(p) {
			return false
		}
	}
	return true
}

// Union returns a new set with the members of both sets.
func (s ProcSet) Union(o ProcSet) ProcSet {
	u := s.Clone()
	for p := range o.m {
		u.m[p] = struct{}{}
	}
	return u
}

// Intersect returns a new set with the members common to both sets.
func (s ProcSet) Intersect(o ProcSet) ProcSet {
	u := NewProcSet()
	for p := range s.m {
		if o.Contains(p) {
			u.m[p] = struct{}{}
		}
	}
	return u
}

// Minus returns a new set with the members of s that are not in o.
func (s ProcSet) Minus(o ProcSet) ProcSet {
	u := NewProcSet()
	for p := range s.m {
		if !o.Contains(p) {
			u.m[p] = struct{}{}
		}
	}
	return u
}

// Min returns the smallest identifier in the set, or None if empty.
func (s ProcSet) Min() ProcessID {
	min := None
	for p := range s.m {
		if min == None || p < min {
			min = p
		}
	}
	return min
}

// String renders the set in sorted paper notation, e.g. "{p1,p3,p4}".
func (s ProcSet) String() string { return string(appendMembers(nil, s.Sorted())) }

// Quorum is an ordered, immutable-by-convention quorum as issued by the
// selection modules: a sorted slice of q distinct processes, plus an
// optional designated leader for Follower Selection.
type Quorum struct {
	// Members holds the quorum members in increasing identifier order.
	Members []ProcessID
	// Leader is the designated leader for Follower Selection quorums,
	// or None for plain Quorum Selection quorums (where by convention
	// the process with the lowest identifier acts as leader).
	Leader ProcessID
}

// NewQuorum builds a quorum from an unsorted member list.
func NewQuorum(members []ProcessID) Quorum {
	ms := make([]ProcessID, len(members))
	copy(ms, members)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	return Quorum{Members: ms}
}

// NewLeaderQuorum builds a Follower Selection quorum with a designated
// leader. The leader must be a member.
func NewLeaderQuorum(leader ProcessID, members []ProcessID) Quorum {
	q := NewQuorum(members)
	q.Leader = leader
	return q
}

// EffectiveLeader returns the designated leader if set, otherwise the
// member with the lowest identifier (the paper's convention for plain
// Quorum Selection, Section V-A step 1).
func (q Quorum) EffectiveLeader() ProcessID {
	if q.Leader != None {
		return q.Leader
	}
	if len(q.Members) == 0 {
		return None
	}
	return q.Members[0]
}

// Contains reports whether p is a quorum member.
func (q Quorum) Contains(p ProcessID) bool {
	for _, m := range q.Members {
		if m == p {
			return true
		}
	}
	return false
}

// Set returns the members as a ProcSet.
func (q Quorum) Set() ProcSet { return FromSlice(q.Members) }

// Equal reports whether two quorums have the same members and leader.
func (q Quorum) Equal(o Quorum) bool {
	if q.Leader != o.Leader || len(q.Members) != len(o.Members) {
		return false
	}
	for i := range q.Members {
		if q.Members[i] != o.Members[i] {
			return false
		}
	}
	return true
}

// String renders the quorum, including the leader when designated.
func (q Quorum) String() string {
	// Room for "p64," per member and the leader prefix; append grows it
	// for larger identifiers.
	b := make([]byte, 0, 4*len(q.Members)+16)
	if q.Leader == None {
		return string(appendMembers(b, q.Members))
	}
	b = q.Leader.appendTo(append(b, "⟨leader="...))
	b = appendMembers(append(b, ", "...), q.Members)
	return string(append(b, "⟩"...))
}

// Less orders quorums lexicographically by their sorted member lists,
// the enumeration order used by XPaxos's quorum iteration (§V-B) and by
// Algorithm 1's "first independent set in lexicographic order".
func (q Quorum) Less(o Quorum) bool {
	for i := 0; i < len(q.Members) && i < len(o.Members); i++ {
		if q.Members[i] != o.Members[i] {
			return q.Members[i] < o.Members[i]
		}
	}
	return len(q.Members) < len(o.Members)
}

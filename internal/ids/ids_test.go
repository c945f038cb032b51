package ids

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewConfig(t *testing.T) {
	tests := []struct {
		name    string
		n, f    int
		wantErr bool
		wantQ   int
	}{
		{name: "pbft minimal", n: 4, f: 1, wantQ: 3},
		{name: "paper fig4", n: 5, f: 2, wantQ: 3},
		{name: "xpaxos 2f+1", n: 5, f: 2, wantQ: 3},
		{name: "no processes", n: 0, f: 0, wantErr: true},
		{name: "negative f", n: 3, f: -1, wantErr: true},
		{name: "no majority", n: 4, f: 2, wantErr: true},
		{name: "f zero", n: 1, f: 0, wantQ: 1},
		{name: "large", n: 31, f: 10, wantQ: 21},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := NewConfig(tt.n, tt.f)
			if (err != nil) != tt.wantErr {
				t.Fatalf("NewConfig(%d,%d) error = %v, wantErr %v", tt.n, tt.f, err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if got := c.Q(); got != tt.wantQ {
				t.Errorf("Q() = %d, want %d", got, tt.wantQ)
			}
		})
	}
}

func TestConfigLeaderCentric(t *testing.T) {
	tests := []struct {
		n, f int
		want bool
	}{
		{4, 1, true},  // n = 3f+1
		{3, 1, false}, // n = 3f
		{7, 2, true},
		{6, 2, false},
		{5, 2, false},
		{1, 0, true},
	}
	for _, tt := range tests {
		c := Config{N: tt.n, F: tt.f}
		if got := c.LeaderCentric(); got != tt.want {
			t.Errorf("Config{%d,%d}.LeaderCentric() = %v, want %v", tt.n, tt.f, got, tt.want)
		}
	}
}

func TestConfigDefaultQuorum(t *testing.T) {
	c := MustConfig(7, 2)
	q := c.DefaultQuorum()
	if q.Len() != 5 {
		t.Fatalf("default quorum size = %d, want 5", q.Len())
	}
	for i := 1; i <= 5; i++ {
		if !q.Contains(ProcessID(i)) {
			t.Errorf("default quorum missing p%d", i)
		}
	}
	if q.Contains(6) || q.Contains(7) {
		t.Errorf("default quorum contains processes beyond q: %s", q)
	}
}

func TestProcSetBasics(t *testing.T) {
	s := NewProcSet(3, 1, 2)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	s.Add(3) // duplicate
	if s.Len() != 3 {
		t.Fatalf("duplicate add changed size: %d", s.Len())
	}
	s.Remove(2)
	if s.Contains(2) {
		t.Error("Remove(2) left 2 in set")
	}
	got := s.Sorted()
	want := []ProcessID{1, 3}
	if len(got) != len(want) {
		t.Fatalf("Sorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
	if s.Min() != 1 {
		t.Errorf("Min = %v, want p1", s.Min())
	}
	if NewProcSet().Min() != None {
		t.Errorf("empty Min should be None")
	}
	if s.String() != "{p1,p3}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestProcSetAlgebra(t *testing.T) {
	a := NewProcSet(1, 2, 3)
	b := NewProcSet(3, 4)
	if got := a.Union(b); got.Len() != 4 {
		t.Errorf("Union = %s", got)
	}
	if got := a.Intersect(b); got.Len() != 1 || !got.Contains(3) {
		t.Errorf("Intersect = %s", got)
	}
	if got := a.Minus(b); got.Len() != 2 || got.Contains(3) {
		t.Errorf("Minus = %s", got)
	}
	// Originals untouched.
	if a.Len() != 3 || b.Len() != 2 {
		t.Error("set algebra mutated operands")
	}
	c := a.Clone()
	c.Add(9)
	if a.Contains(9) {
		t.Error("Clone shares storage with original")
	}
	if !a.Equal(NewProcSet(3, 2, 1)) {
		t.Error("Equal failed for same members")
	}
	if a.Equal(b) {
		t.Error("Equal true for different sets")
	}
}

func TestQuorum(t *testing.T) {
	q := NewQuorum([]ProcessID{3, 1, 5})
	if q.String() != "{p1,p3,p5}" {
		t.Errorf("String = %q", q.String())
	}
	if q.EffectiveLeader() != 1 {
		t.Errorf("EffectiveLeader = %v, want p1", q.EffectiveLeader())
	}
	lq := NewLeaderQuorum(3, []ProcessID{3, 1, 5})
	if lq.EffectiveLeader() != 3 {
		t.Errorf("designated leader = %v, want p3", lq.EffectiveLeader())
	}
	if !q.Contains(5) || q.Contains(2) {
		t.Error("Contains wrong")
	}
	if !q.Equal(NewQuorum([]ProcessID{5, 3, 1})) {
		t.Error("Equal should ignore input order")
	}
	if q.Equal(lq) {
		t.Error("Equal must compare leaders")
	}
	if (Quorum{}).EffectiveLeader() != None {
		t.Error("empty quorum leader should be None")
	}
}

func TestQuorumLess(t *testing.T) {
	tests := []struct {
		a, b []ProcessID
		want bool
	}{
		{[]ProcessID{1, 2, 3}, []ProcessID{1, 2, 4}, true},
		{[]ProcessID{1, 2, 4}, []ProcessID{1, 3, 4}, true},
		{[]ProcessID{2, 3, 4}, []ProcessID{1, 2, 3}, false},
		{[]ProcessID{1, 2, 3}, []ProcessID{1, 2, 3}, false},
		{[]ProcessID{1, 2}, []ProcessID{1, 2, 3}, true},
	}
	for _, tt := range tests {
		a, b := NewQuorum(tt.a), NewQuorum(tt.b)
		if got := a.Less(b); got != tt.want {
			t.Errorf("%s.Less(%s) = %v, want %v", a, b, got, tt.want)
		}
	}
}

func TestBinomial(t *testing.T) {
	tests := []struct {
		n, k, want int
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1},
		{4, 2, 6}, {5, 2, 10}, {6, 3, 20},
		{10, 5, 252}, {3, 5, 0},
		{7, 2, 21}, // XPaxos enumeration size for n=7, f=2... C(7,5)=C(7,2)
	}
	for _, tt := range tests {
		if got := Binomial(tt.n, tt.k); got != tt.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestPaperBounds(t *testing.T) {
	// Spot-check the closed forms against the paper's statements.
	tests := []struct {
		f                       int
		thm4, thm3, thm9, cor10 int
	}{
		{1, 3, 2, 4, 8},
		{2, 6, 6, 7, 14},
		{3, 10, 12, 10, 20},
		{5, 21, 30, 16, 32},
	}
	for _, tt := range tests {
		if got := TheoremFourBound(tt.f); got != tt.thm4 {
			t.Errorf("TheoremFourBound(%d) = %d, want %d", tt.f, got, tt.thm4)
		}
		if got := TheoremThreeBound(tt.f); got != tt.thm3 {
			t.Errorf("TheoremThreeBound(%d) = %d, want %d", tt.f, got, tt.thm3)
		}
		if got := TheoremNineBound(tt.f); got != tt.thm9 {
			t.Errorf("TheoremNineBound(%d) = %d, want %d", tt.f, got, tt.thm9)
		}
		if got := CorollaryTenBound(tt.f); got != tt.cor10 {
			t.Errorf("CorollaryTenBound(%d) = %d, want %d", tt.f, got, tt.cor10)
		}
	}
}

func TestEnumerateQuorums(t *testing.T) {
	qs := EnumerateQuorums(4, 3)
	if len(qs) != 4 {
		t.Fatalf("len = %d, want 4", len(qs))
	}
	want := []string{"{p1,p2,p3}", "{p1,p2,p4}", "{p1,p3,p4}", "{p2,p3,p4}"}
	for i, q := range qs {
		if q.String() != want[i] {
			t.Errorf("quorum %d = %s, want %s", i, q, want[i])
		}
	}
	// Enumeration is sorted under Less.
	for i := 1; i < len(qs); i++ {
		if !qs[i-1].Less(qs[i]) {
			t.Errorf("enumeration not lexicographically sorted at %d", i)
		}
	}
	if got := EnumerateQuorums(3, 0); len(got) != 1 {
		t.Errorf("q=0 should yield the single empty quorum, got %d", len(got))
	}
	if got := EnumerateQuorums(3, 4); got != nil {
		t.Errorf("q>n should yield nil, got %v", got)
	}
}

func TestEnumerateQuorumsCount(t *testing.T) {
	for _, tt := range []struct{ n, q int }{{5, 3}, {6, 4}, {7, 5}, {8, 4}} {
		got := EnumerateQuorums(tt.n, tt.q)
		if want := Binomial(tt.n, tt.q); len(got) != want {
			t.Errorf("EnumerateQuorums(%d,%d) has %d quorums, want %d", tt.n, tt.q, len(got), want)
		}
	}
}

func TestQuorumIndex(t *testing.T) {
	n, q := 7, 5
	all := EnumerateQuorums(n, q)
	for i, qu := range all {
		if got := QuorumIndex(n, qu); got != i {
			t.Errorf("QuorumIndex(%s) = %d, want %d", qu, got, i)
		}
	}
	if got := QuorumIndex(4, NewQuorum([]ProcessID{1, 9})); got != -1 {
		t.Errorf("out-of-range quorum index = %d, want -1", got)
	}
	if got := QuorumIndex(4, Quorum{}); got != -1 {
		t.Errorf("empty quorum index = %d, want -1", got)
	}
}

func TestProcSetUnionCommutative(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa, sb := NewProcSet(), NewProcSet()
		for _, x := range a {
			sa.Add(ProcessID(x%16 + 1))
		}
		for _, x := range b {
			sb.Add(ProcessID(x%16 + 1))
		}
		return sa.Union(sb).Equal(sb.Union(sa))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProcSetMinusDisjoint(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa, sb := NewProcSet(), NewProcSet()
		for _, x := range a {
			sa.Add(ProcessID(x%16 + 1))
		}
		for _, x := range b {
			sb.Add(ProcessID(x%16 + 1))
		}
		d := sa.Minus(sb)
		return d.Intersect(sb).Empty() && d.Union(sa.Intersect(sb)).Equal(sa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStringMatchesFmtRendering pins the strconv renderings of
// ProcessID, ProcSet and Quorum byte for byte to the fmt-based ones
// they replaced: QUORUM event details and seeded traces embed them.
func TestStringMatchesFmtRendering(t *testing.T) {
	name := func(p ProcessID) string {
		if p == None {
			return "p?"
		}
		return fmt.Sprintf("p%d", int(p))
	}
	body := func(ps []ProcessID) string {
		parts := make([]string, len(ps))
		for i, p := range ps {
			parts[i] = name(p)
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	for _, p := range []ProcessID{None, 1, 9, 10, 64, 1024, -3} {
		if got, want := p.String(), name(p); got != want {
			t.Errorf("ProcessID(%d).String() = %q, want %q", int(p), got, want)
		}
	}
	for _, members := range [][]ProcessID{nil, {1}, {2, 7, 10}, {1, 2, 3, 64, 1000}} {
		if got, want := FromSlice(members).String(), body(members); got != want {
			t.Errorf("ProcSet.String() = %q, want %q", got, want)
		}
		q := NewQuorum(members)
		if got, want := q.String(), body(members); got != want {
			t.Errorf("Quorum.String() = %q, want %q", got, want)
		}
		for _, leader := range []ProcessID{1, 12} {
			q.Leader = leader
			if got, want := q.String(), fmt.Sprintf("⟨leader=%s, %s⟩", name(leader), body(members)); got != want {
				t.Errorf("leader Quorum.String() = %q, want %q", got, want)
			}
		}
	}
}

package quorum

import (
	"strings"
	"testing"
)

// TestParseSpecRoundTrips: accepted specs re-parse from their canonical
// String() form to a system with the same canonical form (the
// normalization fixpoint the fuzzer also enforces).
func TestParseSpecRoundTrips(t *testing.T) {
	cases := []struct{ in, canonical string }{
		{"threshold:n=4;f=1", "threshold:n=4;q=3"},
		{"threshold:n=7;q=5", "threshold:n=7;q=5"},
		{"weighted:w=3,1,1,1;t=4", "weighted:w=3,1,1,1;t=4"},
		{"weighted:w=1,1,1;t=2/3", "weighted:w=1,1,1;t=3"}, // ⌊3·2/3⌋+1
		{"slices:n=4;1={2};2={1};3={4};4={3}", "slices:n=4;1={2};2={1};3={4};4={3}"},
		{"slices:1={2,3};2={1};3={1}", "slices:n=3;1={2,3};2={1};3={1}"}, // n inferred
		{" threshold:n=4 ; f=1 ", "threshold:n=4;q=3"},                   // whitespace tolerated
	}
	for _, tc := range cases {
		sys, err := ParseSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.in, err)
		}
		if got := sys.String(); got != tc.canonical {
			t.Fatalf("ParseSpec(%q).String()=%q, want %q", tc.in, got, tc.canonical)
		}
		again, err := ParseSpec(sys.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", sys.String(), err)
		}
		if again.String() != sys.String() {
			t.Fatalf("canonical form unstable: %q -> %q", sys.String(), again.String())
		}
	}
}

// TestParseSpecRejections: malformed specs fail with an error, never a
// panic or a half-built system.
func TestParseSpecRejections(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"mystery:n=4",
		"threshold:",
		"threshold:n=4",         // no q or f
		"threshold:n=4;q=3;f=1", // both q and f
		"threshold:n=4;q=0",     // q out of range
		"threshold:n=4;q=5",     // q > n
		"threshold:n=-2;f=1",
		"threshold:n=129;f=1",          // beyond MaxSpecN
		"slices:n=0000010000000000000", // beyond MaxSpecN: no 10¹³-process allocation
		"slices:1={1000000000000}",     // n taken from the largest member
		"slices:n=-1",
		"weighted:w=" + strings.Repeat("1,", 64) + "1;t=3", // 65 weights
		"threshold:n=4;f=one",
		"weighted:t=3",           // no weights
		"weighted:w=1,1,1",       // no target
		"weighted:w=1,-1,1;t=2",  // negative weight
		"weighted:w=1,1,1;t=0",   // target below 1
		"weighted:w=1,1,1;t=4",   // target above total
		"weighted:w=1,1,1;t=2/0", // zero denominator
		"weighted:w=1,1,1;t=3/2", // fraction above 1
		"weighted:w=;t=1",
		"slices:n=4;1={2}",                         // p2..p4 have no slices
		"slices:n=4;1={2};1={3};2={1};3={1};4={1}", // duplicate owner
		"slices:n=4;1={5};2={1};3={1};4={1}",       // member out of range
		"slices:n=2;1={2};2={1};5={1}",             // owner above n
		"slices:n=17;1={2}",                        // beyond the slice bitset
		"slices:n=4;1=2;2={1};3={1};4={1}",         // missing braces
	}
	for _, in := range cases {
		if sys, err := ParseSpec(in); err == nil {
			t.Fatalf("ParseSpec(%q) accepted: %v", in, sys)
		}
	}
}

// TestMustParseSpecPanics pins the Must contract.
func TestMustParseSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseSpec on a bad spec did not panic")
		}
	}()
	MustParseSpec("threshold:n=4")
}

// FuzzQuorumSpec fuzzes the spec parser/validator end to end: any input
// either fails with an error or yields a system whose canonical form is
// a parse fixpoint — and on small systems, whose exact-checker verdict
// matches brute-force disjoint-quorum enumeration, so a spec can never
// be accepted-then-unsafe past the checker.
func FuzzQuorumSpec(f *testing.F) {
	seeds := []string{
		// The shipped examples.
		"threshold:n=4;f=1",
		"threshold:n=7;q=5",
		"weighted:w=3,2,2,1,1;t=5",
		"weighted:w=1,1,1;t=2/3",
		"slices:n=4;1={2,3}|{2,4}|{3,4};2={1,3}|{1,4}|{3,4};3={1,2}|{1,4}|{2,4};4={1,2}|{1,3}|{2,3}",
		// Asymmetric-trust shapes in the style of Alpos & Cachin's
		// examples: unbalanced influence and per-process slices.
		"weighted:w=3,3,3;t=4",
		"slices:n=3;1={2}|{3};2={1,3};3={1,2}",
		"slices:1={2,3};2={1};3={1}",
		// Known-unsafe but well-formed: must parse, and the checker must
		// reject it downstream.
		"slices:n=4;1={2};2={1};3={4};4={3}",
		"weighted:w=1,1,1,1;t=2",
		// Malformed shapes steering the fuzzer at the validators.
		"threshold:n=4;q=3;f=1",
		"weighted:w=1,-1;t=1",
		"slices:n=17;1={2}",
		"slices:n=4;1=2",
		"threshold:n=999999999999;f=1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sys, err := ParseSpec(in)
		if err != nil {
			if sys != nil {
				t.Fatalf("ParseSpec(%q) returned both a system and error %v", in, err)
			}
			return
		}
		n := sys.N()
		if n < 1 || n > MaxSpecN {
			t.Fatalf("ParseSpec(%q) accepted out-of-range n=%d", in, n)
		}
		canonical := sys.String()
		again, err := ParseSpec(canonical)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canonical, in, err)
		}
		if again.String() != canonical {
			t.Fatalf("canonical form unstable: %q -> %q -> %q", in, canonical, again.String())
		}
		if n <= 8 {
			r := Check(sys, CheckOptions{})
			if want := !bruteHasDisjointQuorums(t, sys); r.Intersection != want {
				t.Fatalf("ParseSpec(%q): checker intersection=%v, brute force %v", in, r.Intersection, want)
			}
			if !r.Intersection {
				if !sys.IsQuorum(r.DisjointA) || !sys.IsQuorum(r.DisjointB) {
					t.Fatalf("ParseSpec(%q): invalid disjoint witnesses %v | %v", in, r.DisjointA, r.DisjointB)
				}
			}
		}
	})
}

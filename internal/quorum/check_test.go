package quorum

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"quorumselect/internal/ids"
)

// bruteHasDisjointQuorums decides disjoint-quorum existence by an
// implementation independent of the checker: mark every quorum mask by
// direct IsQuorum calls, close the marking under supersets with a
// subset-lattice DP, and ask whether any quorum's complement contains a
// quorum. Exponential, so callers keep n small.
func bruteHasDisjointQuorums(t *testing.T, sys System) bool {
	t.Helper()
	n := sys.N()
	if n > 16 {
		t.Fatalf("bruteHasDisjointQuorums: n=%d too large", n)
	}
	size := 1 << n
	isQ := make([]bool, size)
	containsQ := make([]bool, size)
	for mask := 0; mask < size; mask++ {
		isQ[mask] = sys.IsQuorum(maskToMembers(mask))
		containsQ[mask] = isQ[mask]
		for b := 0; b < n && !containsQ[mask]; b++ {
			if mask&(1<<b) != 0 && containsQ[mask&^(1<<b)] {
				containsQ[mask] = true
			}
		}
	}
	full := size - 1
	for mask := 0; mask < size; mask++ {
		if isQ[mask] && containsQ[full&^mask] {
			return true
		}
	}
	return false
}

// maskToMembers lists the members of a bitmask over Π (bit i ↦
// p_{i+1}): the tests' own subset enumeration, independent of ProcSet.
func maskToMembers(mask int) []ids.ProcessID {
	out := []ids.ProcessID{}
	for i := 0; mask>>i != 0; i++ {
		if mask>>i&1 != 0 {
			out = append(out, ids.ProcessID(i+1))
		}
	}
	return out
}

// checkWitnesses validates a failing intersection report: both
// witnesses must be real quorums of the system and genuinely disjoint.
func checkWitnesses(t *testing.T, sys System, r Report) {
	t.Helper()
	if r.Intersection {
		return
	}
	if !sys.IsQuorum(r.DisjointA) || !sys.IsQuorum(r.DisjointB) {
		t.Fatalf("%s: witness not a quorum: A=%v (%v) B=%v (%v)",
			sys, r.DisjointA, sys.IsQuorum(r.DisjointA), r.DisjointB, sys.IsQuorum(r.DisjointB))
	}
	if !ids.FromSlice(r.DisjointA).Intersect(ids.FromSlice(r.DisjointB)).Empty() {
		t.Fatalf("%s: witnesses %v and %v are not disjoint", sys, r.DisjointA, r.DisjointB)
	}
}

// generatedSpecs yields a seeded battery of threshold, weighted, and
// slice systems with n <= maxN.
func generatedSpecs(rng *rand.Rand, maxN int) []System {
	var specs []System
	for n := 1; n <= maxN; n++ {
		for q := 1; q <= n; q++ {
			th, err := NewThreshold(n, q)
			if err == nil {
				specs = append(specs, th)
			}
		}
	}
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(maxN-1)
		weights := make([]int, n)
		total := 0
		for j := range weights {
			weights[j] = rng.Intn(5)
			total += weights[j]
		}
		if total == 0 {
			weights[0], total = 1, 1
		}
		w, err := NewWeighted(weights, 1+rng.Intn(total))
		if err == nil {
			specs = append(specs, w)
		}
	}
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(5) // 2..6: slice count explodes quickly
		spec := make([][][]ids.ProcessID, n)
		for p := 0; p < n; p++ {
			slices := 1 + rng.Intn(2)
			for s := 0; s < slices; s++ {
				var members []ids.ProcessID
				for o := 1; o <= n; o++ {
					if o != p+1 && rng.Intn(2) == 0 {
						members = append(members, ids.ProcessID(o))
					}
				}
				spec[p] = append(spec[p], members)
			}
		}
		sl, err := NewSlices(n, spec)
		if err == nil {
			specs = append(specs, sl)
		}
	}
	return specs
}

// TestCheckerNeverAcceptsDisjointSpecs is satellite (a): over an
// exhaustive threshold sweep plus hundreds of seeded weighted and slice
// systems at n <= 12, the exact checker's intersection verdict must
// agree with independent brute-force enumeration — an accepted spec
// never admits two disjoint quorums, and every rejection carries valid
// disjoint witnesses.
func TestCheckerNeverAcceptsDisjointSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	for _, sys := range generatedSpecs(rng, 12) {
		r := Check(sys, CheckOptions{})
		if !r.Exact {
			t.Fatalf("%s (n=%d): expected exact mode", sys, sys.N())
		}
		if want := !bruteHasDisjointQuorums(t, sys); r.Intersection != want {
			t.Fatalf("%s: checker intersection=%v, brute force says %v\n%s", sys, r.Intersection, want, r)
		}
		checkWitnesses(t, sys, r)
	}
}

// TestWeightedSubsetSumGap is the regression for the naive 2T <= total
// shortcut: weights {3,3,3} with target 4 have total 9 >= 2*4, yet the
// achievable subset weights {0,3,6,9} skip the [4,5] window, so no two
// disjoint quorums exist and the checker must say so.
func TestWeightedSubsetSumGap(t *testing.T) {
	sys, err := NewWeighted([]int{3, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := Check(sys, CheckOptions{})
	if !r.Intersection {
		t.Fatalf("checker found phantom disjoint quorums:\n%s", r)
	}
	if bruteHasDisjointQuorums(t, sys) {
		t.Fatal("brute force disagrees: disjoint quorums exist?!")
	}
}

// TestWeightedDisjointDetected: four unit weights with target 2 split
// into {p1,p2} and {p3,p4}; the checker must reject with witnesses.
func TestWeightedDisjointDetected(t *testing.T) {
	sys, err := NewWeighted([]int{1, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := Check(sys, CheckOptions{})
	if r.Intersection {
		t.Fatalf("checker missed disjoint quorums:\n%s", r)
	}
	checkWitnesses(t, sys, r)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "disjoint quorums") {
		t.Fatalf("Err()=%v, want disjoint-quorums error", err)
	}
}

// TestAvailabilityVerdicts pins the f-availability half of the report.
func TestAvailabilityVerdicts(t *testing.T) {
	cases := []struct {
		spec      string
		faults    int
		available bool
	}{
		{"threshold:n=4;f=1", 1, true},
		{"threshold:n=4;f=1", 2, false},      // q=3 but only 2 processes left
		{"weighted:w=3,1,1,1;t=4", 1, false}, // losing p1 leaves weight 3 < 4
		{"weighted:w=2,1,1,1;t=3", 1, true},
		{"slices:n=4;1={2,3}|{2,4}|{3,4};2={1,3}|{1,4}|{3,4};3={1,2}|{1,4}|{2,4};4={1,2}|{1,3}|{2,3}", 1, true},
		{"slices:n=4;1={2,3}|{2,4}|{3,4};2={1,3}|{1,4}|{3,4};3={1,2}|{1,4}|{2,4};4={1,2}|{1,3}|{2,3}", 2, false},
	}
	for _, tc := range cases {
		sys := MustParseSpec(tc.spec)
		r := Check(sys, CheckOptions{Faults: tc.faults})
		if r.Available != tc.available {
			t.Fatalf("%s faults=%d: available=%v, want %v\n%s", tc.spec, tc.faults, r.Available, tc.available, r)
		}
		if !tc.available {
			if len(r.FaultWitness) != tc.faults {
				t.Fatalf("%s faults=%d: witness %v has wrong size", tc.spec, tc.faults, r.FaultWitness)
			}
			if sys.Survives(ids.FromSlice(r.FaultWitness)) {
				t.Fatalf("%s faults=%d: system survives the claimed witness %v", tc.spec, tc.faults, r.FaultWitness)
			}
		}
	}
}

// TestSampledSameSeedDeterministic: beyond the exact cutoff the checker
// samples, and its full report — verdict, witnesses, confidence line —
// is a pure function of the seed. This is the hook the chaos replayer
// relies on for byte-identical dumps.
func TestSampledSameSeedDeterministic(t *testing.T) {
	weights := make([]int, 24)
	for i := range weights {
		weights[i] = 1 + i%3
	}
	sys, err := NewWeighted(weights, 24) // total 48, 2T = 48: disjoint splits exist
	if err != nil {
		t.Fatal(err)
	}
	opts := CheckOptions{Seed: 42, Faults: 1}
	a, b := Check(sys, opts), Check(sys, opts)
	if a.String() != b.String() {
		t.Fatalf("same seed, different reports:\n%s\n%s", a, b)
	}
	if a.Exact {
		t.Fatalf("n=24 should be sampled, got exact:\n%s", a)
	}
	if a.Confidence != CheckConfidence || a.EpsilonBound <= 0 {
		t.Fatalf("sampled report missing confidence bound:\n%s", a)
	}
}

// TestSampledFindsPlantedViolation forces sampling on small systems
// whose disjointness is known, checking the sampler misses nothing it
// has a fair chance at: the disjoint split is hit with probability 1/8
// (slices) or ~3/8 (weighted) per sample, so 2048 samples are
// overwhelming.
func TestSampledFindsPlantedViolation(t *testing.T) {
	for _, spec := range []string{
		"slices:n=4;1={2};2={1};3={4};4={3}",
		"weighted:w=1,1,1,1;t=2",
	} {
		sys := MustParseSpec(spec)
		r := Check(sys, CheckOptions{MaxExactN: -1, Samples: 2048, Seed: 7})
		if r.Exact {
			t.Fatalf("%s: MaxExactN=-1 did not force sampling", spec)
		}
		if r.Intersection {
			t.Fatalf("%s: sampler missed the planted disjoint pair:\n%s", spec, r)
		}
		checkWitnesses(t, sys, r)
	}
}

// TestSampledNeverInventsViolations: forced sampling on systems that DO
// intersect must stay clean — the sampler can only miss violations,
// never fabricate them, because every reported witness is re-extracted
// as a real quorum.
func TestSampledNeverInventsViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(0xFACADE))
	for _, spec := range []string{
		"threshold:n=4;f=1",
		"threshold:n=10;f=3",
		"weighted:w=3,3,3;t=4",
		"weighted:w=3,2,2,1,1;t=5",
	} {
		sys := MustParseSpec(spec)
		r := Check(sys, CheckOptions{MaxExactN: -1, Samples: 512, Seed: rng.Uint64()})
		if !r.Intersection {
			t.Fatalf("%s: sampler invented a violation:\n%s", spec, r)
		}
	}
}

// TestReportErrPrecedence: when both halves fail, the intersection
// error (a safety bug) outranks the availability error (a liveness
// bug).
func TestReportErrPrecedence(t *testing.T) {
	sys := MustParseSpec("weighted:w=1,1;t=1") // disjoint {p1}|{p2}; dies with f=2
	r := Check(sys, CheckOptions{Faults: 2})
	if r.Intersection || r.Available {
		t.Fatalf("expected both failures:\n%s", r)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "disjoint") {
		t.Fatalf("Err()=%v, want the intersection error first", err)
	}
}

// TestCheckReportStringStable pins the one-line report format consumed
// by chaos dumps and cmd/quorumcheck output.
func TestCheckReportStringStable(t *testing.T) {
	r := Check(MustParseSpec("threshold:n=4;f=1"), CheckOptions{Faults: 1})
	want := `quorum-check spec="threshold:n=4;q=3" n=4 mode=exact intersection=ok available=ok faults=1`
	if r.String() != want {
		t.Fatalf("report line drifted:\n got %s\nwant %s", r, want)
	}
	s := Check(MustParseSpec("slices:n=4;1={2};2={1};3={4};4={3}"), CheckOptions{MaxExactN: -1, Samples: 2048, Seed: 5, Faults: 1})
	wantS := `quorum-check spec="slices:n=4;1={2};2={1};3={4};4={3}" n=4 mode=sampled samples=2048 seed=5 confidence=0.99 eps=0.002249 intersection=FAIL disjoint={p1,p2}|{p3,p4} available=ok faults=1`
	if s.String() != wantS {
		t.Fatalf("sampled report line drifted:\n got %s\nwant %s", s, wantS)
	}
}

// TestCheckerWitnessSanityOverRandomSpecs re-validates every witness the
// checker emits across the generated battery at a larger n than the
// exhaustive test, without the brute-force cross-check.
func TestCheckerWitnessSanityOverRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(0xCAFE))
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(15)
		weights := make([]int, n)
		total := 0
		for j := range weights {
			weights[j] = rng.Intn(6)
			total += weights[j]
		}
		if total == 0 {
			weights[0], total = 1, 1
		}
		sys, err := NewWeighted(weights, 1+rng.Intn(total))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		r := Check(sys, CheckOptions{Faults: 1})
		checkWitnesses(t, sys, r)
		if !r.Available {
			if sys.Survives(ids.FromSlice(r.FaultWitness)) {
				t.Fatalf("case %d %s: survives claimed witness %v", i, sys, r.FaultWitness)
			}
		}
	}
}

func ExampleCheck() {
	sys := MustParseSpec("weighted:w=2,1,1,1;t=3")
	fmt.Println(Check(sys, CheckOptions{Faults: 1}))
	// Output:
	// quorum-check spec="weighted:w=2,1,1,1;t=3" n=4 mode=exact intersection=ok available=ok faults=1
}

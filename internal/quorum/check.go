package quorum

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"quorumselect/internal/ids"
)

// DefaultMaxExactN is the instance size up to which Check runs the
// exact (exhaustive bitset) intersection and availability analysis.
// Beyond it the seeded randomized sampler takes over. Quorum
// intersection for general specs is coNP-complete (Lachowski), so the
// cutoff is a real complexity wall, not a tuning knob.
const DefaultMaxExactN = 20

// DefaultSamples is the sampler budget when CheckOptions.Samples is 0.
// 4096 bipartitions put the one-sided miss bound ε = ln(100)/K at
// about 0.11% violation density for 0.99 confidence.
const DefaultSamples = 4096

// CheckConfidence is the confidence level the sampled checker reports
// its ε bound at.
const CheckConfidence = 0.99

// CheckOptions configures Check.
type CheckOptions struct {
	// MaxExactN overrides the exact/sampled cutoff: 0 means
	// DefaultMaxExactN, -1 forces sampling even on tiny instances (the
	// chaos harness uses this to exercise the seeded sampler
	// deterministically).
	MaxExactN int
	// Samples is the sampler budget; 0 means DefaultSamples.
	Samples int
	// Seed seeds the sampler. Replays of the same (spec, options) are
	// byte-identical: the sampler is a pure function of the seed.
	Seed uint64
	// Faults is the fault-set size availability is checked under.
	// 0 checks only that some quorum exists at all.
	Faults int
}

// Report is Check's verdict. Its String rendering is deterministic —
// chaos dumps embed it and diff replays byte-for-byte.
type Report struct {
	Spec    string
	N       int
	Exact   bool   // exhaustive analysis; Samples/Seed/Epsilon unset
	Samples int    // sampler budget actually used
	Seed    uint64 // sampler seed

	// Intersection is false when two disjoint quorums were found;
	// DisjointA/B then hold a minimal witness pair.
	Intersection bool
	DisjointA    []ids.ProcessID
	DisjointB    []ids.ProcessID

	// Available is false when a fault set of size Faults kills every
	// quorum; FaultWitness then holds one such set.
	Faults       int
	Available    bool
	FaultWitness []ids.ProcessID

	// Confidence and EpsilonBound qualify sampled verdicts: a PASS
	// only says "no violation found"; with K samples, any violation
	// hit with probability ≥ ε = ln(1/(1−Confidence))/K per sample
	// would have been found with probability ≥ Confidence.
	Confidence   float64
	EpsilonBound float64
}

// Err returns nil for a clean report and a descriptive error for an
// unsafe or unavailable spec. Boot gates call this: a node must refuse
// to start on a spec whose Err is non-nil.
func (r Report) Err() error {
	if !r.Intersection {
		return fmt.Errorf("quorum: spec %q admits disjoint quorums %s and %s — a partitioned log could commit on both",
			r.Spec, fmtMembers(r.DisjointA), fmtMembers(r.DisjointB))
	}
	if !r.Available {
		return fmt.Errorf("quorum: spec %q loses all quorums under fault set %s (f=%d)",
			r.Spec, fmtMembers(r.FaultWitness), r.Faults)
	}
	return nil
}

// String renders the report on one line, deterministically.
func (r Report) String() string {
	var b strings.Builder
	mode := "exact"
	if !r.Exact {
		mode = "sampled"
	}
	fmt.Fprintf(&b, "quorum-check spec=%q n=%d mode=%s", r.Spec, r.N, mode)
	if !r.Exact {
		fmt.Fprintf(&b, " samples=%d seed=%d confidence=%s eps=%s",
			r.Samples, r.Seed,
			strconv.FormatFloat(r.Confidence, 'g', 4, 64),
			strconv.FormatFloat(r.EpsilonBound, 'g', 4, 64))
	}
	if r.Intersection {
		b.WriteString(" intersection=ok")
	} else {
		fmt.Fprintf(&b, " intersection=FAIL disjoint=%s|%s", fmtMembers(r.DisjointA), fmtMembers(r.DisjointB))
	}
	if r.Available {
		fmt.Fprintf(&b, " available=ok faults=%d", r.Faults)
	} else {
		fmt.Fprintf(&b, " available=FAIL faults=%d witness=%s", r.Faults, fmtMembers(r.FaultWitness))
	}
	return b.String()
}

func fmtMembers(ms []ids.ProcessID) string {
	return ids.FromSlice(ms).String()
}

// Check analyzes the system for quorum intersection and availability.
// Instances within the exact cutoff get an exhaustive verdict; larger
// ones (or a forced MaxExactN of -1) get a seeded randomized sweep with
// a reported confidence bound. Sampling can only miss violations, never
// invent them: every reported witness pair is re-validated as two
// genuinely disjoint quorums before the report is returned.
func Check(sys System, opts CheckOptions) Report {
	r := Report{
		Spec:         sys.String(),
		N:            sys.N(),
		Intersection: true,
		Faults:       opts.Faults,
		Available:    true,
	}
	cutoff := opts.MaxExactN
	if cutoff == 0 {
		cutoff = DefaultMaxExactN
	}
	exact := cutoff > 0 && exactFeasible(sys, cutoff)
	if exact {
		r.Exact = true
		checkExact(sys, &r)
	} else {
		r.Samples = opts.Samples
		if r.Samples <= 0 {
			r.Samples = DefaultSamples
		}
		r.Seed = opts.Seed
		r.Confidence = CheckConfidence
		r.EpsilonBound = math.Log(1/(1-CheckConfidence)) / float64(r.Samples)
		checkSampled(sys, &r)
	}
	return r
}

// exactFeasible reports whether an exhaustive verdict is tractable:
// threshold is analytic at any n; everything else needs n within the
// cutoff (and slices within the enumeration bound).
func exactFeasible(sys System, cutoff int) bool {
	switch s := sys.(type) {
	case Threshold:
		return true
	case Weighted:
		return s.N() <= cutoff
	case *Slices:
		return s.N() <= cutoff && s.N() <= MaxEnumerateN
	default:
		return sys.MinQuorums() != nil
	}
}

func checkExact(sys System, r *Report) {
	switch s := sys.(type) {
	case Threshold:
		// Two size-q sets can be disjoint iff 2q ≤ n.
		if 2*s.q <= s.n {
			r.Intersection = false
			r.DisjointA = rangeMembers(1, s.q)
			r.DisjointB = rangeMembers(s.q+1, 2*s.q)
		}
	case Weighted:
		// Disjoint quorums exist iff some achievable subset weight
		// lands in [T, Σw−T]: the subset and its complement then both
		// reach the target. Note 2T ≤ Σw alone is NOT sufficient —
		// w={3,3,3}, T=4 has achievable weights {0,3,6,9} missing the
		// window [4,5] — hence the exhaustive walk.
		all := ids.FirstN(s.N())
		for set := (ids.ProcSet{}); nextSubset(&set, s.N()) && set != all; {
			w := s.weightOf(set)
			if w >= s.target && s.total-w >= s.target {
				r.Intersection = false
				r.DisjointA = trimQuorum(sys, set)
				r.DisjointB = trimQuorum(sys, all.Minus(set))
				break
			}
		}
	default:
		// Disjoint quorums exist iff two disjoint MINIMAL quorums
		// exist (every quorum contains a minimal one), so pairwise
		// scanning the enumeration is exact even for non-monotone
		// slice systems.
		mq := sys.MinQuorums()
		findDisjointPair(mq, r)
	}
	checkAvailabilityExact(sys, r)
}

func findDisjointPair(mq [][]ids.ProcessID, r *Report) {
	for i := 0; i < len(mq) && r.Intersection; i++ {
		a := ids.FromSlice(mq[i])
		for j := i + 1; j < len(mq); j++ {
			if a.Intersect(ids.FromSlice(mq[j])).Empty() {
				r.Intersection = false
				r.DisjointA = mq[i]
				r.DisjointB = mq[j]
				break
			}
		}
	}
}

func checkAvailabilityExact(sys System, r *Report) {
	switch s := sys.(type) {
	case Threshold:
		if s.n-r.Faults < s.q {
			r.Available = false
			r.FaultWitness = rangeMembers(1, r.Faults)
		}
	case Weighted:
		// The adversary's best move is killing the heaviest f
		// processes (ties broken by id, deterministically).
		worst := heaviest(s, r.Faults)
		if !s.Survives(ids.FromSlice(worst)) {
			r.Available = false
			r.FaultWitness = worst
		}
	default:
		// Walk every size-f fault set in lexicographic order;
		// EnumerateQuorums is exactly that combination walk.
		if r.Faults == 0 {
			if !Contains(sys, ids.FirstN(sys.N())) {
				r.Available = false
				r.FaultWitness = []ids.ProcessID{}
			}
			return
		}
		for _, c := range ids.EnumerateQuorums(sys.N(), r.Faults) {
			if !sys.Survives(c.Set()) {
				r.Available = false
				r.FaultWitness = c.Members
				return
			}
		}
	}
}

func checkSampled(sys System, r *Report) {
	n := sys.N()
	rng := splitmix64{state: r.Seed}
	all := ids.FirstN(n)
	for i := 0; i < r.Samples && r.Intersection; i++ {
		// Random bipartition S | Π∖S: if both sides contain a quorum,
		// those quorums are disjoint. Each sample draws two words, bit
		// i of the pair deciding p_{i+1}; processes past p_128 always
		// fall on the Π∖S side.
		lo, hi := rng.next(), rng.next()
		var side ids.ProcSet
		for v := 1; v <= min(n, 128); v++ {
			word := lo
			if v > 64 {
				word = hi
			}
			if word>>uint((v-1)&63)&1 != 0 {
				side.Add(ids.ProcessID(v))
			}
		}
		rest := all.Minus(side)
		if Contains(sys, side) && Contains(sys, rest) {
			a := minimalQuorumWithin(sys, side)
			b := minimalQuorumWithin(sys, rest)
			if a != nil && b != nil {
				r.Intersection = false
				r.DisjointA = a
				r.DisjointB = b
			}
		}
	}
	if r.Faults > 0 {
		for i := 0; i < r.Samples && r.Available; i++ {
			faults := randomSubset(&rng, n, r.Faults)
			if !sys.Survives(faults) {
				r.Available = false
				r.FaultWitness = faults.Members()
			}
		}
	} else if !Contains(sys, all) {
		r.Available = false
		r.FaultWitness = []ids.ProcessID{}
	}
}

// minimalQuorumWithin extracts a deterministic minimal quorum inside
// set, or nil if it cannot certify one. Small systems scan MinQuorums;
// large (necessarily monotone threshold/weighted) systems greedily trim
// the whole set.
func minimalQuorumWithin(sys System, set ids.ProcSet) []ids.ProcessID {
	if mq := sys.MinQuorums(); mq != nil {
		for _, q := range mq {
			if subsetOf(q, set) {
				return q
			}
		}
		return nil
	}
	if !sys.IsQuorum(set.Members()) {
		return nil
	}
	return trimQuorum(sys, set)
}

// trimQuorum greedily removes members in increasing id order while the
// rest is still a quorum, yielding a deterministic minimal witness.
// Valid for monotone systems (threshold, weighted).
func trimQuorum(sys System, cur ids.ProcSet) []ids.ProcessID {
	for {
		removed := false
		for p := cur.Next(ids.None); p != ids.None; p = cur.Next(p) {
			cur.Remove(p)
			if sys.IsQuorum(cur.Members()) {
				removed = true
				break
			}
			cur.Add(p)
		}
		if !removed {
			return cur.Members()
		}
	}
}

func heaviest(w Weighted, f int) []ids.ProcessID {
	type pw struct {
		p ids.ProcessID
		w int
	}
	all := make([]pw, w.N())
	for i := range all {
		all[i] = pw{p: ids.ProcessID(i + 1), w: w.weights[i]}
	}
	// Selection by (weight desc, id asc) without sort importing churn.
	out := make([]ids.ProcessID, 0, f)
	taken := make([]bool, len(all))
	for k := 0; k < f && k < len(all); k++ {
		best := -1
		for i, c := range all {
			if taken[i] {
				continue
			}
			if best < 0 || c.w > all[best].w {
				best = i
			}
		}
		taken[best] = true
		out = append(out, all[best].p)
	}
	return ids.FromSlice(out).Members()
}

func rangeMembers(lo, hi int) []ids.ProcessID {
	if hi < lo {
		return []ids.ProcessID{}
	}
	out := make([]ids.ProcessID, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, ids.ProcessID(v))
	}
	return out
}

func randomSubset(rng *splitmix64, n, k int) ids.ProcSet {
	// Partial Fisher–Yates over [1..n]: deterministic for a given rng
	// state, uniform over size-k subsets.
	perm := make([]ids.ProcessID, n)
	for i := range perm {
		perm[i] = ids.ProcessID(i + 1)
	}
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		j := i + int(rng.next()%uint64(n-i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return ids.FromSlice(perm[:k])
}

// splitmix64 is the sampler's PRNG: tiny, seedable, and stable across
// Go versions — replays of a chaos seed must reproduce the exact same
// sample sequence byte-for-byte.
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

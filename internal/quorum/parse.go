package quorum

import (
	"fmt"
	"strconv"
	"strings"

	"quorumselect/internal/ids"
)

// ParseSpec parses a quorum-system spec string into a System. The
// grammar, one clause per ';' after a kind prefix:
//
//	threshold:n=4;f=1          — the paper's system, q = n − f
//	threshold:n=4;q=3          — explicit quorum size
//	weighted:w=3,1,1,1;t=4     — per-process weights, absolute target
//	weighted:w=3,1,1,1;t=2/3   — fractional target: T = ⌊Σw·2/3⌋ + 1
//	slices:n=4;1={2,3}|{3,4};2={1};3={4};4={3}
//	                           — FBAS slices per process; the owner is
//	                             implicit in each of its own slices
//
// Parsing validates structure only — a well-formed spec can still be
// unsafe. Run Check (and gate boot on Report.Err) before trusting one.
func ParseSpec(spec string) (System, error) {
	sys, err := parseSpec(spec)
	if err != nil {
		// Constructors return value types (or typed nil pointers); never
		// let one leak through the interface next to an error.
		return nil, err
	}
	return sys, nil
}

// MaxSpecN bounds n in parsed specs: configurations arrive as strings
// from flags and fuzzers, and a threshold or slices spec with an absurd
// n would otherwise allocate proportionally (graphs are n²-bit) long before any
// cluster of that size could exist.
const MaxSpecN = 128

func parseSpec(spec string) (System, error) {
	spec = strings.TrimSpace(spec)
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("quorum: spec %q needs a kind prefix (threshold:, weighted:, slices:)", spec)
	}
	switch kind {
	case "threshold":
		return parseThreshold(rest)
	case "weighted":
		return parseWeighted(rest)
	case "slices":
		return parseSlices(rest)
	default:
		return nil, fmt.Errorf("quorum: unknown spec kind %q", kind)
	}
}

// MustParseSpec is ParseSpec that panics, for tests and examples.
func MustParseSpec(spec string) System {
	s, err := ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	return s
}

func parseThreshold(rest string) (System, error) {
	n, q, f := 0, 0, -1
	for _, clause := range splitClauses(rest) {
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("quorum: threshold clause %q is not key=value", clause)
		}
		v, err := parseInt(key, val)
		if err != nil {
			return nil, err
		}
		switch key {
		case "n":
			n = v
		case "q":
			q = v
		case "f":
			f = v
		default:
			return nil, fmt.Errorf("quorum: threshold does not take %q", key)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("quorum: threshold spec needs n")
	}
	if n > MaxSpecN {
		return nil, fmt.Errorf("quorum: threshold spec n=%d exceeds the parser bound %d", n, MaxSpecN)
	}
	switch {
	case q != 0 && f >= 0:
		return nil, fmt.Errorf("quorum: threshold spec takes q or f, not both")
	case f >= 0:
		q = n - f
	case q == 0:
		return nil, fmt.Errorf("quorum: threshold spec needs q or f")
	}
	return NewThreshold(n, q)
}

func parseWeighted(rest string) (System, error) {
	var weights []int
	target, haveTarget := 0, false
	var fracA, fracB int
	for _, clause := range splitClauses(rest) {
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("quorum: weighted clause %q is not key=value", clause)
		}
		switch key {
		case "w":
			for _, tok := range strings.Split(val, ",") {
				w, err := parseInt("w", tok)
				if err != nil {
					return nil, err
				}
				weights = append(weights, w)
			}
		case "t":
			if a, b, ok := strings.Cut(val, "/"); ok {
				na, err := parseInt("t numerator", a)
				if err != nil {
					return nil, err
				}
				nb, err := parseInt("t denominator", b)
				if err != nil {
					return nil, err
				}
				if nb <= 0 || na <= 0 || na >= nb {
					return nil, fmt.Errorf("quorum: fractional target %q must be a proper positive fraction", val)
				}
				fracA, fracB = na, nb
			} else {
				t, err := parseInt("t", val)
				if err != nil {
					return nil, err
				}
				target = t
			}
			haveTarget = true
		default:
			return nil, fmt.Errorf("quorum: weighted does not take %q", key)
		}
	}
	if len(weights) == 0 || !haveTarget {
		return nil, fmt.Errorf("quorum: weighted spec needs w=... and t=...")
	}
	if fracB > 0 {
		total := 0
		for _, w := range weights {
			total += w
		}
		// "more than the fraction": T = ⌊Σw·a/b⌋ + 1, the strict-
		// majority generalization (t=1/2 on unit weights is q = ⌊n/2⌋+1).
		target = total*fracA/fracB + 1
	}
	return NewWeighted(weights, target)
}

func parseSlices(rest string) (System, error) {
	clauses := splitClauses(rest)
	n := 0
	perProc := make(map[int][][]ids.ProcessID)
	maxSeen := 0
	for _, clause := range clauses {
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("quorum: slices clause %q is not key=value", clause)
		}
		if key == "n" {
			v, err := parseInt("n", val)
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, fmt.Errorf("quorum: slices spec n=%d is negative", v)
			}
			n = v
			continue
		}
		owner, err := parseInt("slice owner", key)
		if err != nil {
			return nil, err
		}
		if owner < 1 {
			return nil, fmt.Errorf("quorum: slice owner %d must be >= 1", owner)
		}
		if _, dup := perProc[owner]; dup {
			return nil, fmt.Errorf("quorum: duplicate slice list for process %d", owner)
		}
		if owner > maxSeen {
			maxSeen = owner
		}
		var list [][]ids.ProcessID
		for _, sl := range strings.Split(val, "|") {
			sl = strings.TrimSpace(sl)
			if !strings.HasPrefix(sl, "{") || !strings.HasSuffix(sl, "}") {
				return nil, fmt.Errorf("quorum: slice %q of process %d must be {id,id,...}", sl, owner)
			}
			body := strings.TrimSuffix(strings.TrimPrefix(sl, "{"), "}")
			var members []ids.ProcessID
			if body != "" {
				for _, tok := range strings.Split(body, ",") {
					v, err := parseInt("slice member", tok)
					if err != nil {
						return nil, err
					}
					members = append(members, ids.ProcessID(v))
					if v > maxSeen {
						maxSeen = v
					}
				}
			}
			list = append(list, members)
		}
		perProc[owner] = list
	}
	if n == 0 {
		n = maxSeen
	}
	if n == 0 {
		return nil, fmt.Errorf("quorum: slices spec names no processes")
	}
	if n > MaxSpecN {
		return nil, fmt.Errorf("quorum: slices spec n=%d exceeds the parser bound %d", n, MaxSpecN)
	}
	spec := make([][][]ids.ProcessID, n)
	for i := 1; i <= n; i++ {
		list, ok := perProc[i]
		if !ok {
			return nil, fmt.Errorf("quorum: slices spec missing slice list for process %d (n=%d)", i, n)
		}
		spec[i-1] = list
		delete(perProc, i)
	}
	for owner := range perProc {
		return nil, fmt.Errorf("quorum: slice owner %d exceeds n=%d", owner, n)
	}
	return NewSlices(n, spec)
}

func splitClauses(rest string) []string {
	var out []string
	for _, c := range strings.Split(rest, ";") {
		c = strings.TrimSpace(c)
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

func parseInt(what, val string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(val))
	if err != nil {
		return 0, fmt.Errorf("quorum: bad %s %q: not an integer", what, val)
	}
	return v, nil
}

package suspicion

import (
	"math/bits"
	"testing"

	"quorumselect/internal/ids"
)

// ringHops is the hop bound the ring forward promises for a row a
// Byzantine owner hands to a single correct process: ⌈(n−1)/(f+1)⌉+2,
// counting the owner's own send as the first hop.
func ringHops(n, f int) int { return (n-1+f)/(f+1) + 2 }

// worstHops plays the forward for one faulty set: a faulty owner sends
// its row to the correct process first and to no one else, every
// correct process forwards the row to targets[p] on first receipt, and
// every faulty process drops everything. It returns the hop at which
// the last correct process first holds the row, or -1 if some correct
// process never does. faulty is a bitmask over 0-based process indices.
func worstHops(n int, faulty uint32, first int, targets [][]ids.ProcessID) int {
	hop := make([]int, n)
	hop[first] = 1
	queue := []int{first}
	worst := 1
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, t := range targets[p] {
			i := int(t) - 1
			if faulty&(1<<i) != 0 || hop[i] != 0 {
				continue
			}
			hop[i] = hop[p] + 1
			worst = max(worst, hop[i])
			queue = append(queue, i)
		}
	}
	for i := 0; i < n; i++ {
		if faulty&(1<<i) == 0 && hop[i] == 0 {
			return -1
		}
	}
	return worst
}

// ringCounterexample searches every faulty set of 1..f processes and
// every correct first receiver for a schedule in which forwarding to
// targets(p) misses a correct process or exceeds ringHops(n, f). Which
// faulty process owns the row does not matter (they are all silent), so
// every faulty set containing the owner is covered. It returns the
// first counterexample found, or ok with the worst hop count seen.
func ringCounterexample(n, f int, targets func(ids.ProcessID) []ids.ProcessID) (faulty uint32, first, hops int, ok bool) {
	fwd := make([][]ids.ProcessID, n)
	for i := range fwd {
		fwd[i] = targets(ids.ProcessID(i + 1))
	}
	worst := 0
	for mask := uint32(1); mask < 1<<n; mask++ {
		if bits.OnesCount32(mask) > f {
			continue
		}
		for x := 0; x < n; x++ {
			if mask&(1<<x) != 0 {
				continue
			}
			h := worstHops(n, mask, x, fwd)
			if h < 0 || h > ringHops(n, f) {
				return mask, x, h, false
			}
			worst = max(worst, h)
		}
	}
	return 0, 0, worst, true
}

// TestRingForwardReachesEveryCorrectProcess proves Lemma 1's premise for
// the ring forward over every small configuration: for every n ≤ 13,
// every f with n ≥ 2f+1, every faulty set of at most f processes
// containing the owner, and every correct process the owner hands its
// row to, forwarding to forwardTargets reaches every correct process
// within ringHops(n, f) hops.
func TestRingForwardReachesEveryCorrectProcess(t *testing.T) {
	for n := 3; n <= 13; n++ {
		for f := 1; 2*f+1 <= n; f++ {
			cfg := ids.MustConfig(n, f)
			faulty, x, hops, ok := ringCounterexample(n, f, func(p ids.ProcessID) []ids.ProcessID {
				return forwardTargets(cfg, p)
			})
			if !ok {
				t.Fatalf("%s: faulty=%b, owner's row to p%d: hop %d, bound %d (-1: a correct process is never reached)",
					cfg, faulty, x+1, hops, ringHops(n, f))
			}
			t.Logf("%s: worst %d hops, bound %d", cfg, hops, ringHops(n, f))
		}
	}
}

// TestRingForwardOfFSuccessorsFails is the mutation check that keeps the
// proof above honest: forwarding to only f successors must fail it at
// every n = 3f+1 with f ≤ 4, where the f faulty processes can fill the
// first receiver's whole window.
func TestRingForwardOfFSuccessorsFails(t *testing.T) {
	for f := 1; f <= 4; f++ {
		n := 3*f + 1
		if _, _, _, ok := ringCounterexample(n, f, func(p ids.ProcessID) []ids.ProcessID {
			return ringSuccessors(p, n, f)
		}); ok {
			t.Errorf("n=%d f=%d: forwarding to %d successors passed the ring proof", n, f, f)
		}
	}
}

package fleet_test

import (
	"math/rand"
	"testing"

	"quorumselect/internal/fleet"
	"quorumselect/internal/load"
)

// TestRouterBalanceOpenLoopSkew drives the ingress router with the
// open-loop generator's own key-skew models instead of a synthetic
// uniform sweep: the Zipf head concentrates a visible fraction of
// REQUESTS on whichever shard owns the hot keys, but the router must
// still keep every shard in business. The draws are seeded, so the
// bounds are deterministic, and they are intentionally looser than
// TestRouterBalance's uniform ±35% — per-request balance under a
// heavy-headed workload is bounded below by the hottest key's mass
// landing on one shard (≈15% of traffic at s=1.1, n=10000), which no
// keyspace partitioning can spread.
func TestRouterBalanceOpenLoopSkew(t *testing.T) {
	const draws = 40000
	cases := []struct {
		name     string
		keys     func() load.Keys
		min, max float64 // allowed shard share as a multiple of 1/N
	}{
		{"uniform", func() load.Keys { return &load.UniformKeys{N: 10000} }, 0.65, 1.35},
		{"zipf-mild", func() load.Keys { return &load.ZipfKeys{N: 10000, S: 1.1} }, 0.45, 1.75},
		{"zipf-hot", func() load.Keys { return &load.ZipfKeys{N: 1000, S: 1.5} }, 0.10, 2.60},
	}
	for _, tc := range cases {
		for _, shards := range []int{2, 4} {
			// Fresh skew + rng per (case, shards): ZipfKeys binds its
			// generator to the first rng it sees.
			keys := tc.keys()
			rng := rand.New(rand.NewSource(31))
			r := fleet.NewRouter(shards)
			counts := make([]int, shards)
			distinct := make(map[string]int)
			for i := 0; i < draws; i++ {
				k := keys.Next(rng)
				counts[r.RouteString(k)]++
				distinct[k] = r.RouteString(k)
			}
			mean := float64(draws) / float64(shards)
			for s, c := range counts {
				ratio := float64(c) / mean
				if ratio < tc.min || ratio > tc.max {
					t.Errorf("%s shards=%d: shard %d got %.2f of mean request share (want [%.2f, %.2f]); counts %v",
						tc.name, shards, s, ratio, tc.min, tc.max, counts)
				}
			}
			// Distinct-key placement must stay near-uniform regardless of
			// how requests skew: the router partitions the KEYSPACE, and
			// the skew only changes how often each partition is hit.
			keyCounts := make([]int, shards)
			for _, s := range distinct {
				keyCounts[s]++
			}
			keyMean := float64(len(distinct)) / float64(shards)
			for s, c := range keyCounts {
				if ratio := float64(c) / keyMean; ratio < 0.65 || ratio > 1.35 {
					t.Errorf("%s shards=%d: shard %d owns %.2f of mean distinct-key share; counts %v",
						tc.name, shards, s, ratio, keyCounts)
				}
			}
		}
	}
}

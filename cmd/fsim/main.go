// Command fsim simulates Follower Selection (Algorithm 2) under fault
// scenarios and prints the leader/quorum trajectory and the §IX bounds.
//
// Usage:
//
//	fsim [-n 7] [-f 2] [-seed 1] [-duration 5s] [-scenario crash|adversary] [-trace SUBSTR]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"quorumselect/internal/adversary"
	"quorumselect/internal/cluster"
	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
)

func main() {
	n := flag.Int("n", 7, "number of processes (must exceed 3f)")
	f := flag.Int("f", 2, "failure threshold")
	seed := flag.Int64("seed", 1, "simulation seed")
	duration := flag.Duration("duration", 5*time.Second, "virtual time to simulate")
	scenario := flag.String("scenario", "crash", "crash|adversary")
	traceFilter := flag.String("trace", "", "print a timeline of events containing this substring (e.g. QUORUM)")
	metricsDump := flag.Bool("metrics-dump", false, "print the run's metrics in Prometheus text format after the run")
	flag.Parse()

	cfg, err := ids.NewConfig(*n, *f)
	if err != nil {
		log.Fatal(err)
	}
	if !cfg.LeaderCentric() {
		log.Fatalf("follower selection requires n > 3f, got %s", cfg)
	}
	faulty := ids.NewProcSet()
	for i := cfg.N - cfg.F + 1; i <= cfg.N; i++ {
		faulty.Add(ids.ProcessID(i))
	}

	opts := follower.DefaultNodeOptions()
	crashSet := ids.NewProcSet()
	switch *scenario {
	case "crash":
		// Crash the default leader p1: worst case for a leader-centric
		// system.
		crashSet.Add(1)
	case "adversary":
		opts.HeartbeatPeriod = 0
	default:
		log.Fatalf("unknown scenario %q", *scenario)
	}

	fNodes := make(map[ids.ProcessID]*follower.Node, cfg.N)
	net := cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
		if crashSet.Contains(at.Proc) {
			return cluster.Member{}
		}
		fNodes[at.Proc] = follower.NewNode(opts)
		return cluster.Member{Node: fNodes[at.Proc]}
	}, sim.Options{
		Seed:    *seed,
		Latency: sim.ConstantLatency(5 * time.Millisecond),
	}).Net

	fmt.Printf("fsim: %s scenario=%s seed=%d\n\n", cfg, *scenario, *seed)

	if *scenario == "adversary" {
		res := adversary.RunFollowerChurn(net, fNodes, adversary.FollowerChurnOptions{F: cfg.F})
		fmt.Printf("suspicions injected : %d\n", res.Injections)
		fmt.Printf("quorums issued      : %d (bounds: 3f+1=%d per epoch, 6f+2=%d total)\n",
			res.QuorumsIssued, ids.TheoremNineBound(cfg.F), ids.CorollaryTenBound(cfg.F))
		fmt.Printf("max per epoch       : %d\n", res.MaxPerEpoch)
		fmt.Printf("final leader        : %s (epoch %d)\n", res.FinalLeader, res.FinalEpoch)
		fmt.Printf("agreement           : %v\n", res.Agreement)
		if *metricsDump {
			fmt.Println()
			net.Metrics().WriteTo(os.Stdout)
		}
		return
	}

	net.Run(*duration)
	var observer *follower.Node
	for _, p := range cfg.All() {
		if node, ok := fNodes[p]; ok {
			observer = node
			break
		}
	}
	fmt.Println("observer quorum trajectory:")
	for i, q := range observer.Quorums() {
		fmt.Printf("  #%d %s\n", i+1, q)
	}
	fmt.Printf("\nfinal leader : %s, quorum %s, stable=%v\n",
		observer.Selector.Leader(), observer.CurrentQuorum(), observer.Selector.Stable())
	agreed := true
	for _, node := range fNodes {
		if !node.CurrentQuorum().Equal(observer.CurrentQuorum()) {
			agreed = false
		}
	}
	fmt.Printf("agreement    : %v\n", agreed)
	if *traceFilter != "" {
		fmt.Printf("\ntrace (%q):\n", *traceFilter)
		for _, e := range net.Events().Events() {
			if s := e.String(); strings.Contains(s, *traceFilter) {
				fmt.Println(s)
			}
		}
	}
	if *metricsDump {
		fmt.Println()
		net.Metrics().WriteTo(os.Stdout)
	}
}

// Command qsim simulates Quorum Selection (Algorithm 1) under a chosen
// fault scenario and prints the quorum trajectory of an observer
// process plus summary statistics.
//
// Usage:
//
//	qsim [-n 7] [-f 2] [-seed 1] [-duration 5s] [-scenario crash|omission|timing|adversary] [-trace SUBSTR]
//
// Scenarios:
//
//	crash     — the f highest processes fall silent; heartbeats expose them
//	omission  — the f highest processes drop heartbeats in 1.5s bursts
//	timing    — the f highest processes delay all traffic with growing steps
//	adversary — the §VII-B worst-case suspicion-injection adversary
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
	"quorumselect/internal/core"
	"quorumselect/internal/ids"
	"quorumselect/internal/sim"
)

func main() {
	n := flag.Int("n", 7, "number of processes")
	f := flag.Int("f", 2, "failure threshold")
	seed := flag.Int64("seed", 1, "simulation seed")
	duration := flag.Duration("duration", 5*time.Second, "virtual time to simulate")
	scenario := flag.String("scenario", "crash", "crash|omission|timing|adversary")
	traceFilter := flag.String("trace", "", "print a timeline of events containing this substring (e.g. QUORUM)")
	metricsDump := flag.Bool("metrics-dump", false, "print the run's metrics in Prometheus text format after the run")
	flag.Parse()

	cfg, err := ids.NewConfig(*n, *f)
	if err != nil {
		log.Fatal(err)
	}
	// The faulty processes sit inside the default quorum (p2..p_{f+1}),
	// so their failures visibly force quorum changes.
	faulty := ids.NewProcSet()
	for i := 2; i <= cfg.F+1; i++ {
		faulty.Add(ids.ProcessID(i))
	}

	opts := core.DefaultNodeOptions()
	var filter sim.Filter
	crashSet := ids.NewProcSet()
	switch *scenario {
	case "crash":
		crashSet = faulty
	case "omission":
		filter = &adversary.BurstOmission{Faulty: faulty, On: 1500 * time.Millisecond, Off: 1500 * time.Millisecond}
	case "timing":
		filter = &adversary.SteppedDelay{Faulty: faulty, Step: 1500 * time.Millisecond, Every: 2500 * time.Millisecond}
	case "adversary":
		opts.HeartbeatPeriod = 0
	default:
		log.Fatalf("unknown scenario %q", *scenario)
	}

	coreNodes := make(map[ids.ProcessID]*core.Node, cfg.N)
	net := cluster.New(cfg, 1, func(at cluster.Site) cluster.Member {
		if crashSet.Contains(at.Proc) {
			return cluster.Member{}
		}
		coreNodes[at.Proc] = core.NewNode(opts)
		return cluster.Member{Node: coreNodes[at.Proc]}
	}, sim.Options{
		Seed:    *seed,
		Filter:  filter,
		Latency: sim.ConstantLatency(5 * time.Millisecond),
	}).Net

	fmt.Printf("qsim: %s scenario=%s faulty=%s seed=%d\n\n", cfg, *scenario, faulty, *seed)

	if *scenario == "adversary" {
		res := adversary.RunQuorumChurn(net, coreNodes, adversary.ChurnOptions{F: cfg.F, Seed: *seed})
		fmt.Printf("suspicions injected : %d\n", res.Injections)
		fmt.Printf("quorums issued      : %d (+1 initial = %d proposed)\n", res.QuorumsIssued, res.QuorumsIssued+1)
		fmt.Printf("max per epoch       : %d (bounds: f(f+1)=%d, C(f+2,2)=%d)\n",
			res.MaxPerEpoch, ids.TheoremThreeBound(cfg.F), ids.TheoremFourBound(cfg.F))
		fmt.Printf("final epoch         : %d\n", res.FinalEpoch)
		fmt.Printf("agreement           : %v\n", res.Agreement)
		if *metricsDump {
			fmt.Println()
			net.Metrics().WriteTo(os.Stdout)
		}
		return
	}

	net.Run(*duration)
	var observer *core.Node
	for _, p := range cfg.All() {
		if n, ok := coreNodes[p]; ok {
			observer = n
			break
		}
	}
	fmt.Println("observer quorum trajectory:")
	for i, q := range observer.Quorums() {
		fmt.Printf("  #%d %s\n", i+1, q)
	}
	fmt.Printf("\nfinal quorum : %s (epoch %d)\n", observer.CurrentQuorum(), observer.Selector.Epoch())
	agreed := true
	for _, node := range coreNodes {
		if !node.CurrentQuorum().Equal(observer.CurrentQuorum()) {
			agreed = false
		}
	}
	fmt.Printf("agreement    : %v\n", agreed)
	fmt.Printf("messages     : %d sent, %d dropped\n",
		net.Metrics().Counter("msg.sent.total"), net.Metrics().Counter("msg.dropped.total"))
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

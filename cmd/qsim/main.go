// Command qsim simulates a Quorum Selection deployment under a chosen
// fault scenario and prints the quorum trajectory of an observer
// process plus summary statistics. -selector picks the selection
// module: Quorum Selection (Algorithm 1, the default) or Follower
// Selection (Algorithm 2, §VIII, which requires n > 3f).
//
// Usage:
//
//	qsim [-selector quorum|follower] [-n 7] [-f 2] [-seed 1] [-duration 5s] [-scenario NAME] [-trace SUBSTR] [-metrics-dump]
//
// Scenarios of -selector quorum, whose faulty processes p2..p_{f+1} sit
// inside the default quorum:
//
//	crash     — the faulty processes fall silent; heartbeats expose them
//	omission  — they drop heartbeats in 1.5s bursts
//	timing    — they delay all traffic with growing steps
//	adversary — the §VII-B worst-case suspicion-injection adversary
//
// Scenarios of -selector follower:
//
//	crash     — the default leader p1 falls silent
//	adversary — the §IX leader-targeting adversary, played by the f
//	            highest processes
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
	"quorumselect/internal/follower"
	"quorumselect/internal/ids"
	"quorumselect/internal/runtime"
	"quorumselect/internal/sim"
)

var (
	selectorName = flag.String("selector", "quorum", "quorum (Algorithm 1) | follower (Algorithm 2, n > 3f)")
	n            = flag.Int("n", 7, "number of processes")
	f            = flag.Int("f", 2, "failure threshold")
	seed         = flag.Int64("seed", 1, "simulation seed")
	duration     = flag.Duration("duration", 5*time.Second, "virtual time to simulate")
	scenarioName = flag.String("scenario", "crash", "quorum: crash|omission|timing|adversary; follower: crash|adversary")
	traceFilter  = flag.String("trace", "", "print a timeline of events containing this substring (e.g. QUORUM)")
	metricsDump  = flag.Bool("metrics-dump", false, "print the run's metrics in Prometheus text format after the run")
)

// node is what the report reads of a composed process; core.Node and
// follower.Node serve all of it from their host.
type node interface {
	runtime.Node
	CurrentQuorum() ids.Quorum
	Quorums() []ids.Quorum
}

// scenario is one fault scenario: its faulty processes, whether they
// never start, and the link filter they act through. The "adversary"
// scenario instead turns heartbeats off and plays the selector's churn
// adversary.
type scenario struct {
	faulty ids.ProcSet
	crash  bool
	filter sim.Filter
}

// selector is everything a simulation differs in between the two
// algorithms.
type selector[N node] struct {
	newNode   func(core.NodeOptions) N
	scenarios func(cfg ids.Config) map[string]scenario
	// churn is the selector's worst-case adversary; churnResult formats
	// its result between the injection count and the agreement verdict.
	churn       func(*sim.Network, map[ids.ProcessID]N, adversary.ChurnOptions) adversary.ChurnResult
	churnResult func(res adversary.ChurnResult, f int) string
	// final describes the observer's state after the run.
	final func(observer N) string
	// messages adds the run's message counts to the report.
	messages bool
}

var quorumSelector = selector[*core.Node]{
	newNode: core.NewNode,
	scenarios: func(cfg ids.Config) map[string]scenario {
		// The faulty processes sit inside the default quorum, so their
		// failures visibly force quorum changes.
		faulty := ids.NewProcSet()
		for i := 2; i <= cfg.F+1; i++ {
			faulty.Add(ids.ProcessID(i))
		}
		return map[string]scenario{
			"crash":     {faulty: faulty, crash: true},
			"omission":  {faulty: faulty, filter: &adversary.BurstOmission{Faulty: faulty, On: 1500 * time.Millisecond, Off: 1500 * time.Millisecond}},
			"timing":    {faulty: faulty, filter: &adversary.SteppedDelay{Faulty: faulty, Step: 1500 * time.Millisecond, Every: 2500 * time.Millisecond}},
			"adversary": {faulty: faulty},
		}
	},
	churn: adversary.RunQuorumChurn,
	churnResult: func(res adversary.ChurnResult, f int) string {
		return fmt.Sprintf("quorums issued      : %d (+1 initial = %d proposed)\n"+
			"max per epoch       : %d (bounds: f(f+1)=%d, C(f+2,2)=%d)\nfinal epoch         : %d",
			res.QuorumsIssued, res.QuorumsIssued+1, res.MaxPerEpoch, ids.TheoremThreeBound(f), ids.TheoremFourBound(f), res.FinalEpoch)
	},
	final: func(o *core.Node) string {
		return fmt.Sprintf("final quorum : %s (epoch %d)", o.CurrentQuorum(), o.Selector.Epoch())
	},
	messages: true,
}

var followerSelector = selector[*follower.Node]{
	newNode: follower.NewNode,
	scenarios: func(cfg ids.Config) map[string]scenario {
		if !cfg.LeaderCentric() {
			log.Fatalf("follower selection requires n > 3f, got %s", cfg)
		}
		// The adversary controls the f highest-identifier processes.
		adv := ids.NewProcSet()
		for i := cfg.N - cfg.F + 1; i <= cfg.N; i++ {
			adv.Add(ids.ProcessID(i))
		}
		return map[string]scenario{
			// The default leader: worst case for a leader-centric system.
			"crash":     {faulty: ids.NewProcSet(1), crash: true},
			"adversary": {faulty: adv},
		}
	},
	churn: adversary.RunFollowerChurn,
	churnResult: func(res adversary.ChurnResult, f int) string {
		return fmt.Sprintf("quorums issued      : %d (bounds: 3f+1=%d per epoch, 6f+2=%d total)\n"+
			"max per epoch       : %d\nfinal leader        : %s (epoch %d)",
			res.QuorumsIssued, ids.TheoremNineBound(f), ids.CorollaryTenBound(f), res.MaxPerEpoch, res.FinalLeader, res.FinalEpoch)
	},
	final: func(o *follower.Node) string {
		return fmt.Sprintf("final leader : %s, quorum %s, stable=%v", o.Selector.Leader(), o.CurrentQuorum(), o.Selector.Stable())
	},
}

func main() {
	flag.Parse()
	cfg, err := ids.NewConfig(*n, *f)
	if err != nil {
		log.Fatal(err)
	}
	switch *selectorName {
	case "quorum":
		simulate(cfg, quorumSelector)
	case "follower":
		simulate(cfg, followerSelector)
	default:
		log.Fatalf("unknown selector %q", *selectorName)
	}
}

// simulate runs the chosen scenario on sel's nodes and prints the
// report: the churn adversary's result, or the observer's quorum
// trajectory and final state after -duration.
func simulate[N node](cfg ids.Config, sel selector[N]) {
	sc, ok := sel.scenarios(cfg)[*scenarioName]
	if !ok {
		log.Fatalf("unknown scenario %q", *scenarioName)
	}
	opts := core.DefaultNodeOptions()
	if *scenarioName == "adversary" {
		opts.HeartbeatPeriod = 0 // the adversary injects suspicions directly
	}
	net, nodes := cluster.Nodes(cfg, func(p ids.ProcessID) (N, bool) {
		if sc.crash && sc.faulty.Contains(p) {
			var none N
			return none, false
		}
		return sel.newNode(opts), true
	}, sim.Options{
		Seed:    *seed,
		Filter:  sc.filter,
		Latency: sim.ConstantLatency(5 * time.Millisecond),
	})

	tag := ""
	if *selectorName != "quorum" {
		tag = " selector=" + *selectorName
	}
	fmt.Printf("qsim: %s%s scenario=%s faulty=%s seed=%d\n\n", cfg, tag, *scenarioName, sc.faulty, *seed)

	if *scenarioName == "adversary" {
		res := sel.churn(net, nodes, adversary.ChurnOptions{F: cfg.F, Seed: *seed})
		fmt.Printf("suspicions injected : %d\n%s\nagreement           : %v\n",
			res.Injections, sel.churnResult(res, cfg.F), res.Agreement)
	} else {
		net.Run(*duration)
		var observer N
		for _, p := range cfg.All() {
			if node, ok := nodes[p]; ok {
				observer = node
				break
			}
		}
		fmt.Println("observer quorum trajectory:")
		for i, q := range observer.Quorums() {
			fmt.Printf("  #%d %s\n", i+1, q)
		}
		_, agreed := cluster.Agreed(nodes)
		fmt.Printf("\n%s\nagreement    : %v\n", sel.final(observer), agreed)
		if sel.messages {
			fmt.Printf("messages     : %d sent, %d dropped\n",
				net.Metrics().Counter("msg.sent.total"), net.Metrics().Counter("msg.dropped.total"))
		}
		if *traceFilter != "" {
			fmt.Printf("\ntrace (%q):\n", *traceFilter)
			for _, e := range net.Events().Events() {
				if s := e.String(); strings.Contains(s, *traceFilter) {
					fmt.Println(s)
				}
			}
		}
	}
	if *metricsDump {
		fmt.Println()
		net.Metrics().WriteTo(os.Stdout)
	}
}

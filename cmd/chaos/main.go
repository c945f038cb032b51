// Command chaos runs the seeded scenario fuzzer from the command line:
// sweep a seed range across protocol compositions, stop at the first
// invariant violation, and print its replayable dump — or replay one
// known seed in full.
//
// Usage:
//
//	chaos [-seeds n] [-first seed] [-protocol all|qs,xpaxos,...] [-faults all|crash,mutate,...]
//	chaos -seed 1337 -protocol xpaxos        # replay one seed, dump everything
//
// Exit status is 1 when any protocol has a violating seed, so the
// command can gate CI directly. A violation prints a reproduce line that
// carries every flag the sweep set, so it replays the same scenario.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"

	"quorumselect/internal/chaos"
	"quorumselect/internal/metrics"
	"quorumselect/internal/sim"
)

// options is the parsed command line.
type options struct {
	seed, first                                            *int64
	seeds, n, f, batch, window, shards                     *int
	protocols, faults, traceDump, topology, spec           *string
	reorder, metricsDump, sharded, unsafeSpec, forceUnsafe *bool
}

// defineFlags registers the command's flags on fs.
func defineFlags(fs *flag.FlagSet) *options {
	return &options{
		seed:        fs.Int64("seed", -1, "replay this single seed and print its full dump"),
		seeds:       fs.Int("seeds", 50, "how many consecutive seeds to run per protocol"),
		first:       fs.Int64("first", 0, "first seed of the sweep"),
		protocols:   fs.String("protocol", "all", "comma-separated protocols (qs,xpaxos,pbftlite,tendermint) or all"),
		faults:      fs.String("faults", "all", "comma-separated fault classes or all"),
		n:           fs.Int("n", 4, "cluster size"),
		f:           fs.Int("f", 1, "failure threshold"),
		batch:       fs.Int("batch", 1, "replica batch size"),
		window:      fs.Int("window", 0, "xpaxos commit-window depth (0 = unbounded)"),
		reorder:     fs.Bool("reorder", false, "allow per-link message reordering"),
		metricsDump: fs.Bool("metrics-dump", false, "print the campaign's metrics in Prometheus text format after the run"),
		traceDump:   fs.String("trace-dump", "", "write the flight-recorder dump (spans + events JSON) of a replayed or violating seed to this file"),
		sharded:     fs.Bool("sharded", false, "run the sharded-partition fleet scenario instead of the generic protocol sweep"),
		shards:      fs.Int("shards", 3, "fleet width for -sharded"),
		topology:    fs.String("topology", "", "WAN topology spec file (see examples/topologies/): replaces the LAN latency band and scales FD timeouts"),
		unsafeSpec:  fs.Bool("unsafe-spec", false, "run the unsafe-spec adversary: the intersection checker must reject the spec before boot"),
		spec:        fs.String("spec", "", "quorum spec for -unsafe-spec (default: the disjoint slices spec)"),
		forceUnsafe: fs.Bool("force-unsafe", false, "with -unsafe-spec: boot a cluster on the spec anyway and demand the disjoint-certificate fork (exit 0 iff demonstrated)"),
	}
}

// configs returns one campaign per protocol the flags select.
func (o *options) configs() ([]chaos.Config, error) {
	ps, err := chaos.ParseProtocols(*o.protocols)
	if err != nil {
		return nil, err
	}
	fs, err := chaos.ParseFaults(*o.faults)
	if err != nil {
		return nil, err
	}
	var topo *sim.BoundTopology
	if *o.topology != "" {
		t, err := sim.LoadTopology(*o.topology)
		if err != nil {
			return nil, err
		}
		if topo, err = t.Bind(*o.n); err != nil {
			return nil, err
		}
	}
	out := make([]chaos.Config, len(ps))
	for i, p := range ps {
		out[i] = chaos.Config{
			N: *o.n, F: *o.f,
			Protocol:  p,
			Faults:    fs,
			BatchSize: *o.batch,
			Window:    *o.window,
			Reorder:   *o.reorder,
			Seeds:     *o.seeds,
			FirstSeed: *o.first,
			Topology:  topo,
		}
	}
	return out, nil
}

func (o *options) shardedConfig() chaos.ShardedConfig {
	return chaos.ShardedConfig{
		N: *o.n, F: *o.f,
		Shards:    *o.shards,
		Window:    *o.window,
		Seeds:     *o.seeds,
		FirstSeed: *o.first,
	}
}

func (o *options) unsafeSpecConfig() chaos.UnsafeSpecConfig {
	return chaos.UnsafeSpecConfig{
		Spec:      *o.spec,
		Force:     *o.forceUnsafe,
		Seeds:     *o.seeds,
		FirstSeed: *o.first,
	}
}

// reproduceArgs returns the arguments that replay seed alone: every
// flag set away from its default, except the sweep's own (seed range,
// protocol list, dump outputs), plus -seed and, when protocol is not
// empty, -protocol narrowed to it.
func reproduceArgs(fs *flag.FlagSet, seed int64, protocol chaos.Protocol) []string {
	var args []string
	fs.VisitAll(func(fl *flag.Flag) {
		switch fl.Name {
		case "seed", "seeds", "first", "protocol", "metrics-dump", "trace-dump":
			return
		}
		v := fl.Value.String()
		switch {
		case v == fl.DefValue:
		case v == "true" && fl.DefValue == "false":
			args = append(args, "-"+fl.Name)
		default:
			args = append(args, "-"+fl.Name, v)
		}
	})
	args = append(args, "-seed", fmt.Sprint(seed))
	if protocol != "" {
		args = append(args, "-protocol", string(protocol))
	}
	return args
}

var shellSafe = regexp.MustCompile(`^[A-Za-z0-9_./,:=@%+-]+$`)

// shellJoin renders args as one POSIX shell command line, single-quoting
// any argument with a character the shell would interpret.
func shellJoin(args []string) string {
	q := make([]string, len(args))
	for i, a := range args {
		if shellSafe.MatchString(a) {
			q[i] = a
		} else {
			q[i] = "'" + strings.ReplaceAll(a, "'", `'\''`) + "'"
		}
	}
	return strings.Join(q, " ")
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	reproduce := func(seed int64, protocol chaos.Protocol) {
		fmt.Printf("reproduce: go run ./cmd/chaos %s\n", shellJoin(reproduceArgs(flag.CommandLine, seed, protocol)))
	}

	if *o.unsafeSpec {
		runUnsafeSpec(o.unsafeSpecConfig(), *o.seed, *o.metricsDump, reproduce)
		return
	}
	if *o.sharded {
		runSharded(o.shardedConfig(), *o.seed, *o.metricsDump, reproduce)
		return
	}

	cfgs, err := o.configs()
	if err != nil {
		fatal(err)
	}
	reg := metrics.NewRegistry()
	failed := false
	var flight []byte
	for _, cfg := range cfgs {
		cfg.Metrics = reg
		p := cfg.Protocol
		if *o.seed >= 0 {
			dump, fl, v := chaos.ReplayDump(cfg, *o.seed)
			fmt.Print(dump)
			flight = fl
			if v != nil {
				failed = true
			}
			continue
		}
		res := chaos.Run(cfg)
		if res.Violation != nil {
			failed = true
			fmt.Printf("%-10s FAIL after %d seeds: %v\n", p, res.Seeds, res.Violation)
			fmt.Print(res.Violation.Dump)
			flight = res.Violation.Flight
			reproduce(res.Violation.Seed, p)
			continue
		}
		fmt.Printf("%-10s ok  %d seeds (%d..%d), no violations\n", p, res.Seeds, *o.first, *o.first+int64(res.Seeds)-1)
	}
	if *o.traceDump != "" && flight != nil {
		if err := os.WriteFile(*o.traceDump, flight, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("flight-recorder dump written to %s\n", *o.traceDump)
	}
	if *o.metricsDump {
		fmt.Println()
		reg.WriteTo(os.Stdout)
	}
	if failed {
		os.Exit(1)
	}
}

// runSharded executes (or replays) the sharded-partition scenario: a
// fleet of XPaxos groups with shard 0's leader partitioned at the
// envelope level while the other shards must keep committing.
func runSharded(cfg chaos.ShardedConfig, seed int64, metricsDump bool, reproduce func(int64, chaos.Protocol)) {
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	failed := false
	if seed >= 0 {
		dump, v := chaos.ReplaySharded(cfg, seed)
		fmt.Print(dump)
		failed = v != nil
	} else {
		res := chaos.RunSharded(cfg)
		if res.Violation != nil {
			failed = true
			fmt.Printf("%-10s FAIL after %d seeds: %v\n", res.Protocol, res.Seeds, res.Violation)
			fmt.Print(res.Violation.Dump)
			reproduce(res.Violation.Seed, "")
		} else {
			fmt.Printf("%-10s ok  %d seeds (%d..%d), no violations\n",
				res.Protocol, res.Seeds, cfg.FirstSeed, cfg.FirstSeed+int64(res.Seeds)-1)
		}
	}
	if metricsDump {
		fmt.Println()
		reg.WriteTo(os.Stdout)
	}
	if failed {
		os.Exit(1)
	}
}

// runUnsafeSpec executes (or replays) the unsafe-spec adversary. The
// exit-status polarity follows the mode: without -force-unsafe the
// checker rejecting the spec is success; with it, the demonstrated
// disjoint-certificate fork is success (the spec is proven unsafe) and
// an absent fork means the scenario failed to show anything.
func runUnsafeSpec(cfg chaos.UnsafeSpecConfig, seed int64, metricsDump bool, reproduce func(int64, chaos.Protocol)) {
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	failed := false
	if seed >= 0 {
		dump, v := chaos.ReplayUnsafeSpec(cfg, seed)
		fmt.Print(dump)
		if cfg.Force {
			failed = v == nil || v.Checker != "unsafe-spec-history"
		} else {
			failed = v != nil
		}
	} else {
		res := chaos.RunUnsafeSpec(cfg)
		switch {
		case cfg.Force && res.Violation != nil && res.Violation.Checker == "unsafe-spec-history":
			fmt.Printf("%-10s demonstrated: spec is unsafe (disjoint certificates forked the log)\n", res.Protocol)
			fmt.Print(res.Violation.Dump)
			reproduce(res.Violation.Seed, "")
		case cfg.Force:
			failed = true
			if res.Violation != nil {
				fmt.Printf("%-10s FAIL: %v\n", res.Protocol, res.Violation)
				fmt.Print(res.Violation.Dump)
			} else {
				fmt.Printf("%-10s FAIL: forced unsafe spec did not fork the log in %d seeds\n", res.Protocol, res.Seeds)
			}
		case res.Violation != nil:
			failed = true
			fmt.Printf("%-10s FAIL after %d seeds: %v\n", res.Protocol, res.Seeds, res.Violation)
			fmt.Print(res.Violation.Dump)
			reproduce(res.Violation.Seed, "")
		default:
			fmt.Printf("%-10s ok  %d seeds (%d..%d), checker rejected the spec before boot every time\n",
				res.Protocol, res.Seeds, cfg.FirstSeed, cfg.FirstSeed+int64(res.Seeds)-1)
		}
	}
	if metricsDump {
		fmt.Println()
		reg.WriteTo(os.Stdout)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chaos:", err)
	os.Exit(1)
}

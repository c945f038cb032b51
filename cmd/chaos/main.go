// Command chaos runs the seeded scenario fuzzer from the command line:
// sweep a seed range across protocol compositions, stop at the first
// invariant violation, and print its replayable dump — or replay one
// known seed in full.
//
// Usage:
//
//	chaos [-seeds n] [-first seed] [-protocol all|qs,xpaxos,...] [-faults all|crash,mutate,...]
//	chaos -seed 1337 -protocol xpaxos        # replay one seed, dump everything
//	chaos -shards 3 | -sharded | -unsafe-spec [-force-unsafe]   # a fleet, or a preset scenario
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
		protocols:   fs.String("protocol", "all", "comma-separated protocols (qs,xpaxos,pbftlite) or all"),
		faults:      fs.String("faults", "all", "comma-separated fault classes or all"),
		n:           fs.Int("n", 4, "cluster size"),
		f:           fs.Int("f", 1, "failure threshold"),
		batch:       fs.Int("batch", 1, "replica batch size"),
		window:      fs.Int("window", 0, "xpaxos commit-window depth (0 = unbounded)"),
		reorder:     fs.Bool("reorder", false, "allow per-link message reordering"),
		metricsDump: fs.Bool("metrics-dump", false, "print the campaign's metrics in Prometheus text format after the run"),
		traceDump:   fs.String("trace-dump", "", "write the flight-recorder dump (spans + events JSON) of a replayed or violating seed to this file"),
		sharded:     fs.Bool("sharded", false, "run the sharded-partition fleet scenario (xpaxos) instead of the generated fault schedules"),
		shards:      fs.Int("shards", 0, "shard groups per process (0: 1, or 3 with -sharded)"),
		topology:    fs.String("topology", "", "WAN topology spec file (see examples/topologies/): replaces the LAN latency band and scales FD timeouts"),
		unsafeSpec:  fs.Bool("unsafe-spec", false, "run the unsafe-spec adversary (xpaxos): the intersection checker must reject the spec before boot"),
		spec:        fs.String("spec", "", "quorum spec for -unsafe-spec (default: the disjoint slices spec)"),
		forceUnsafe: fs.Bool("force-unsafe", false, "with -unsafe-spec: boot a cluster on the spec anyway and demand the disjoint-certificate fork (exit 0 iff demonstrated)"),
	}
}

// configs returns one campaign per protocol the flags select; a preset
// is one xpaxos campaign.
func (o *options) configs() ([]chaos.Config, error) {
	ps, err := chaos.ParseProtocols(*o.protocols)
	if err != nil {
		return nil, err
	}
	preset := chaos.PresetGenerated
	switch {
	case *o.unsafeSpec:
		preset = chaos.PresetUnsafeSpec
	case *o.sharded:
		preset = chaos.PresetShardedPartition
	}
	if preset != chaos.PresetGenerated {
		ps = []chaos.Protocol{chaos.ProtocolXPaxos}
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
			Preset:    preset,
			Faults:    fs,
			Shards:    *o.shards,
			Spec:      *o.spec,
			Force:     *o.forceUnsafe && *o.unsafeSpec,
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

// reproduceArgs returns the arguments that replay seed alone: every
// flag set away from its default, except the sweep's own (seed range,
// protocol list, dump outputs), plus -seed and -protocol narrowed to
// protocol.
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
	return append(args, "-seed", fmt.Sprint(seed), "-protocol", string(protocol))
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
	cfgs, err := o.configs()
	if err != nil {
		fatal(err)
	}
	reg := metrics.NewRegistry()
	failed := false
	var flight []byte
	for _, cfg := range cfgs {
		cfg.Metrics = reg
		name := string(cfg.Protocol)
		if cfg.Preset != chaos.PresetGenerated {
			name = string(cfg.Preset)
		}
		if *o.seed >= 0 {
			dump, fl, v := chaos.ReplayDump(cfg, *o.seed)
			fmt.Print(dump)
			flight = fl
			failed = failed || !expected(cfg, v)
			continue
		}
		res := chaos.Run(cfg)
		v := res.Violation
		if v != nil {
			flight = v.Flight
		}
		switch {
		case cfg.Force && expected(cfg, v):
			fmt.Printf("%-10s demonstrated: spec is unsafe (disjoint certificates forked the log)\n", name)
		case v != nil:
			failed = true
			fmt.Printf("%-10s FAIL after %d seeds: %v\n", name, res.Seeds, v)
		case cfg.Force:
			failed = true
			fmt.Printf("%-10s FAIL: forced unsafe spec did not fork the log in %d seeds\n", name, res.Seeds)
		default:
			fmt.Printf("%-10s ok  %d seeds (%d..%d), no violations\n", name, res.Seeds, *o.first, *o.first+int64(res.Seeds)-1)
		}
		if v != nil {
			fmt.Print(v.Dump)
			fmt.Printf("reproduce: go run ./cmd/chaos %s\n", shellJoin(reproduceArgs(flag.CommandLine, v.Seed, cfg.Protocol)))
		}
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

// expected reports whether a seed's outcome is the campaign's success:
// no violation, except under -force-unsafe, where success is the
// history fork that proves the spec unsafe.
func expected(cfg chaos.Config, v *chaos.Violation) bool {
	if cfg.Force {
		return v != nil && v.Checker == "history-agreement"
	}
	return v == nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chaos:", err)
	os.Exit(1)
}

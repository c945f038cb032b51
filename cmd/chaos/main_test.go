package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"quorumselect/internal/chaos"
)

func parse(t *testing.T, args []string) (*options, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return o, fs
}

// TestReproduceArgsReparse: the arguments a violation prints replay the
// violating seed under the campaign's own configuration — the same
// chaos.Config up to the seed range, for every sweep, presets included.
func TestReproduceArgsReparse(t *testing.T) {
	const seed = 12
	sweeps := [][]string{
		{"-protocol", "xpaxos", "-window", "4", "-batch", "4", "-reorder", "-seeds", "50"},
		{"-n", "7", "-f", "2", "-protocol", "qs,xpaxos", "-faults", "crash,omission", "-first", "30", "-seeds", "30"},
		{"-topology", "../../examples/topologies/geo3.topo", "-metrics-dump", "-trace-dump", "flight.json"},
		{"-protocol", "pbftlite", "-faults", "crash-restart"},
		{"-protocol", "xpaxos", "-shards", "3"},
		{"-sharded", "-seeds", "10"},
		{"-sharded", "-shards", "4", "-window", "2", "-n", "7", "-f", "2", "-seeds", "10"},
		{"-unsafe-spec", "-force-unsafe", "-spec", "slices:n=4;1={2};2={1};3={4};4={3}", "-seeds", "1"},
	}
	for _, args := range sweeps {
		o, fs := parse(t, args)
		cfgs, err := o.configs()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range cfgs {
			rargs := reproduceArgs(fs, seed, want.Protocol)
			ro, _ := parse(t, rargs)
			got, err := ro.configs()
			if err != nil {
				t.Fatal(err)
			}
			if *ro.seed != seed || len(got) != 1 {
				t.Fatalf("%q → %q: seed %d over %d protocols, want %d over 1", args, rargs, *ro.seed, len(got), seed)
			}
			want.Seeds, want.FirstSeed = got[0].Seeds, got[0].FirstSeed
			if !reflect.DeepEqual(got[0], want) {
				t.Errorf("%q → %q re-parses to\n%+v\nwant\n%+v", args, rargs, got[0], want)
			}
		}
	}
}

// TestReproduceLine pins the printed form: default flags are left out,
// a set bool is bare, and a value the shell would interpret is quoted.
func TestReproduceLine(t *testing.T) {
	_, fs := parse(t, []string{"-protocol", "all", "-window", "4", "-reorder", "-seeds", "50",
		"-spec", "slices:n=4;1={2}", "-faults", "crash,omission"})
	got := shellJoin(reproduceArgs(fs, 12, chaos.ProtocolXPaxos))
	want := "-faults crash,omission -reorder -spec 'slices:n=4;1={2}' -window 4 -seed 12 -protocol xpaxos"
	if got != want {
		t.Errorf("reproduce line\n got %s\nwant %s", got, want)
	}
	if got := shellJoin([]string{"it's"}); got != `'it'\''s'` {
		t.Errorf("quote of a single quote = %s", got)
	}
}

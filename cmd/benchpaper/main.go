// Command benchpaper regenerates every quantitative result of the
// paper as text tables: E1–E10 of DESIGN.md §3. Each table prints the
// paper-side expectation (bounds, figure behavior) next to the measured
// value. See EXPERIMENTS.md for the recorded comparison.
//
// Usage:
//
//	benchpaper [-f max] [-only E4] [-requests n] [-seeds n]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"quorumselect/internal/experiments"
)

func main() {
	maxF := flag.Int("f", 4, "largest failure threshold f to sweep")
	only := flag.String("only", "", "run only these experiments (comma-separated, e.g. E1,E4)")
	requests := flag.Int("requests", 20, "requests per message-counting run (E4)")
	seeds := flag.Int("seeds", 4, "random-adversary seeds per configuration (E1)")
	format := flag.String("format", "text", "output format: text|csv|markdown")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	runs := []struct {
		id  string
		run func() experiments.Table
	}{
		{"E1", func() experiments.Table { return experiments.E1QuorumChanges(*maxF, *seeds) }},
		{"E2", func() experiments.Table { return experiments.E2LowerBound(*maxF) }},
		{"E3", func() experiments.Table { return experiments.E3FollowerBound(*maxF) }},
		{"E4", func() experiments.Table { return experiments.E4MessageReduction(min(*maxF, 3), *requests) }},
		{"E5", func() experiments.Table { return experiments.E5ViewChanges(min(*maxF, 3)) }},
		{"E6", func() experiments.Table { return experiments.E6NormalCase(min(*maxF, 3)) }},
		{"E7", experiments.E7DetectionMatrix},
		{"E8", experiments.E8SuspectGraph},
		{"E9", experiments.E9LineSubgraphs},
		{"E10", experiments.E10Ablations},
		{"E12", func() experiments.Table {
			return experiments.E12Scalability([]int{4, 7, 10, 16, 22, 31, 64, 128, 256})
		}},
		{"E13", func() experiments.Table { return experiments.E13FollowerScalability(*maxF + 2) }},
	}
	ran := 0
	for _, r := range runs {
		if !selected(r.id) {
			continue
		}
		tbl := r.run()
		switch *format {
		case "csv":
			fmt.Print(tbl.RenderCSV())
			fmt.Println()
		case "markdown":
			fmt.Println(tbl.RenderMarkdown())
		default:
			fmt.Println(tbl.Render())
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched -only=%s\n", *only)
		os.Exit(1)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// spec mirrors ../BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's own
// workload and metric tables equal.
func TestSpecMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, want []specMetric, have []metricDef) {
		if len(want) != len(have) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(want), len(have))
		}
		seen := make(map[string]bool)
		for i, m := range want {
			if m.Name != have[i].name || m.Unit != have[i].unit || m.Bound != have[i].bound ||
				(kind == "end_to_end" && (m.Better == "higher") != have[i].higher) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, have[i])
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: name %q outside [A-Za-z0-9_.-]+", kind, m.Name)
			}
			if seen[m.Name] {
				t.Errorf("%s: %q listed twice", kind, m.Name)
			}
			seen[m.Name] = true
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd)
	same("per_layer", s.PerLayer, perLayer)
}

// TestWorkloadsEmitEveryMetric runs each workload at 1/50 scale,
// untraced and traced, and checks that the result line carries exactly
// the metrics BENCHMARK.json names, each once: finite, end-to-end ones
// above zero.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	seconds := float64(s.RunSeconds) / 50
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var detail bytes.Buffer
			res, err := execute(w, runConfig{seed: 1, seconds: seconds, trace: traced}, &detail)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			timingVoid := raceDetector && w.name == "lan-open" && !res.Correct
			if (!res.Correct && !timingVoid) || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, detail.String())
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the test compares with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// countMetrics are the per-layer counts that must repeat exactly for a
// fixed seed.
func countMetrics(spec *benchmarkSpec) []string {
	var out []string
	for _, m := range spec.PerLayer {
		if m.Unit == "count" || m.Unit == "ratio" {
			out = append(out, m.Name)
		}
	}
	return out
}

// TestMain lets the test binary serve as the reference server, as
// colordbench does when it is run with -reference.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-reference" {
		if err := serveReference(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "reference server:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// TestTinyRuns runs every workload for one second, untraced and twice
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// names, with their units, that no operation failed, and that colors and
// every per-layer count repeat exactly for the same seed.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts colord")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "colord")
	build := exec.Command("go", "build", "-o", bin, "./cmd/colord")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building colord: %v\n%s", err, out)
	}
	units := func(traced bool) map[string]string {
		m := map[string]string{}
		defs := spec.EndToEnd
		if traced {
			defs = spec.PerLayer
		}
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
		return m
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var colors []float64
			var traces []map[string]metricValue
			for _, traced := range []bool{false, true, true} {
				var out bytes.Buffer
				cfg := runConfig{workload: w.Name, seed: 7, seconds: 1, colord: bin, out: t.TempDir(), self: os.Args[0]}
				res, err := run(cfg, traced, &out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var printed result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &printed); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !printed.Correct || printed.Failed != 0 || printed.Attempted < 1 || !res.Correct {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d\n%s", traced, printed.Correct, printed.Attempted, printed.Failed, lines[0])
				}
				want := units(traced)
				if len(printed.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics printed, BENCHMARK.json names %d", traced, len(printed.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := printed.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("traced=%v: metric %s printed as %+v (ok=%v), want unit %s", traced, name, m, ok, unit)
					}
				}
				var rec struct {
					Colors float64 `json:"colors"`
				}
				if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[0], "run record: ")), &rec); err != nil {
					t.Fatalf("first line is not the run record: %v", err)
				}
				colors = append(colors, rec.Colors)
				if traced {
					traces = append(traces, printed.Metrics)
				} else if got := printed.Metrics["colors"].Value; got != rec.Colors {
					t.Errorf("colors metric %v, run record %v", got, rec.Colors)
				}
			}
			if colors[0] != colors[1] || colors[1] != colors[2] {
				t.Errorf("colors differ between runs of seed 7: %v", colors)
			}
			for _, name := range countMetrics(&spec) {
				if a, b := traces[0][name].Value, traces[1][name].Value; a != b {
					t.Errorf("count %s differs between traced runs of seed 7: %v and %v", name, a, b)
				}
			}
		})
	}
}

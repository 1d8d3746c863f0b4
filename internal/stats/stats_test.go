package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPerfProfileBasic(t *testing.T) {
	// Solver A best on both instances; B within 2x.
	results := map[string][]float64{
		"A": {10, 20},
		"B": {20, 20},
	}
	prof, err := PerfProfile(results)
	if err != nil {
		t.Fatal(err)
	}
	// A is best everywhere: fraction 1 at τ=1.
	if got := ProfileAt(prof["A"], 1.0); got != 1.0 {
		t.Fatalf("A at τ=1: %v", got)
	}
	// B: instance 2 tied-best (ratio 1), instance 1 ratio 2.
	if got := ProfileAt(prof["B"], 1.0); got != 0.5 {
		t.Fatalf("B at τ=1: %v", got)
	}
	if got := ProfileAt(prof["B"], 2.0); got != 1.0 {
		t.Fatalf("B at τ=2: %v", got)
	}
	if got := ProfileAt(prof["B"], 1.5); got != 0.5 {
		t.Fatalf("B at τ=1.5: %v", got)
	}
}

func TestPerfProfileErrors(t *testing.T) {
	if _, err := PerfProfile(map[string][]float64{"A": {1}, "B": {1, 2}}); err == nil {
		t.Fatal("ragged input accepted")
	}
	if _, err := PerfProfile(map[string][]float64{}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := PerfProfile(map[string][]float64{"A": {0}}); err == nil {
		t.Fatal("zero metric accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"graph", "colors", "time"}}
	tb.Add("kron-16", 42, 1.5)
	tb.Add("grid", 3, 250*time.Millisecond)
	out := tb.String()
	if !strings.Contains(out, "graph") || !strings.Contains(out, "kron-16") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + rule + 2 rows
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		1234.5: "1234.5",
		2.5:    "2.500",
		0.125:  "0.1250",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v)=%q want %q", in, got, want)
		}
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(10, 2) != 5 {
		t.Fatal("speedup wrong")
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("zero denominator not inf")
	}
}

package verify

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func pathGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Path(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCheckProperAccepts(t *testing.T) {
	g := pathGraph(t)
	if err := CheckProper(g, []uint32{1, 2, 1, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckProperRejectsMonochromaticEdge(t *testing.T) {
	g := pathGraph(t)
	if err := CheckProper(g, []uint32{1, 1, 2, 1}); err == nil {
		t.Fatal("monochromatic edge accepted")
	}
}

func TestCheckProperRejectsUncolored(t *testing.T) {
	g := pathGraph(t)
	if err := CheckProper(g, []uint32{1, 0, 1, 2}); err == nil {
		t.Fatal("uncolored vertex accepted")
	}
}

func TestCheckProperRejectsWrongLength(t *testing.T) {
	g := pathGraph(t)
	if err := CheckProper(g, []uint32{1, 2}); err == nil {
		t.Fatal("short color slice accepted")
	}
}

func TestIsProperMatchesCheckProper(t *testing.T) {
	g := pathGraph(t)
	cases := [][]uint32{
		{1, 2, 1, 2},
		{1, 1, 2, 1},
		{0, 1, 2, 1},
		{4, 3, 4, 3},
	}
	for _, c := range cases {
		want := CheckProper(g, c) == nil
		if got := IsProper(g, c, 2); got != want {
			t.Fatalf("IsProper(%v)=%v, CheckProper says %v", c, got, want)
		}
	}
}

func TestNumColorsAndMaxColor(t *testing.T) {
	colors := []uint32{1, 3, 3, 7, 1}
	if NumColors(colors) != 3 {
		t.Fatalf("NumColors=%d want 3", NumColors(colors))
	}
	if MaxColor(colors) != 7 {
		t.Fatalf("MaxColor=%d want 7", MaxColor(colors))
	}
	if NumColors(nil) != 0 || MaxColor(nil) != 0 {
		t.Fatal("empty cases wrong")
	}
	if NumColors([]uint32{0, 0}) != 0 {
		t.Fatal("uncolored vertices counted")
	}
}

// TestNumColorsHugeValues: colors above len(colors) are counted exactly
// and allocate nothing proportional to their value (a color near 2^31
// must not cost a 2 GiB table, 2^32−1 must not wrap one to length 0).
func TestNumColorsHugeValues(t *testing.T) {
	colors := []uint32{1, math.MaxUint32, 1 << 31, math.MaxUint32, 0, 3, 1 << 31, 5}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := NumColors(colors)
	runtime.ReadMemStats(&after)
	if got != 5 {
		t.Fatalf("NumColors=%d want 5", got)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<16 {
		t.Fatalf("NumColors of %d colors allocated %d bytes", len(colors), alloc)
	}
	// The dense/sparse boundary: len(colors) itself is a dense color.
	if got := NumColors([]uint32{4, 4, 5, 2}); got != 3 {
		t.Fatalf("NumColors at the dense bound=%d want 3", got)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]uint32{1, 1, 2, 0})
	if h[0] != 1 || h[1] != 2 || h[2] != 1 {
		t.Fatalf("histogram=%v", h)
	}
}

func TestCountConflicts(t *testing.T) {
	g, err := gen.Cycle(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 0-1-2-3-0 with colors 1,1,1,2: conflicts on edges (0,1) and (1,2).
	got := CountConflicts(g, []uint32{1, 1, 1, 2}, 2)
	if got != 2 {
		t.Fatalf("conflicts=%d want 2", got)
	}
	if CountConflicts(g, []uint32{1, 2, 1, 2}, 2) != 0 {
		t.Fatal("proper coloring reported conflicts")
	}
	// Uncolored vertices never conflict.
	if CountConflicts(g, []uint32{0, 0, 0, 0}, 2) != 0 {
		t.Fatal("uncolored conflict")
	}
}

func TestAssertBound(t *testing.T) {
	if err := AssertBound("x", 5, 5); err != nil {
		t.Fatal("bound met but rejected")
	}
	if err := AssertBound("x", 6, 5); err == nil {
		t.Fatal("bound exceeded but accepted")
	}
}

func TestGreedyBound(t *testing.T) {
	g, err := gen.Star(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if GreedyBound(g) != 10 {
		t.Fatalf("Δ+1=%d want 10", GreedyBound(g))
	}
}

package parcolor

import (
	"bytes"
	"strings"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	g, err := Kronecker(10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms() {
		res, err := Color(g, algo, Options{Procs: 2, Seed: 3, Epsilon: 0.1})
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		if err := Verify(g, res.Colors); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
		if res.NumColors != NumColors(res.Colors) {
			t.Errorf("%s: NumColors mismatch", algo)
		}
	}
}

func TestColorUnknownAlgorithm(t *testing.T) {
	g, err := Grid2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Color(g, "JP-XYZ", Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestQualityBoundsHold(t *testing.T) {
	g, err := BarabasiAlbert(2000, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.1, 0} {
		for _, algo := range []string{JPADG, JPADGM, JPSL, DECADGITR} {
			res, err := Color(g, algo, Options{Procs: 2, Seed: 9, Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			bound, err := QualityBound(g, algo, eps)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumColors > bound {
				t.Errorf("%s at ε=%g: %d colors > bound %d", algo, eps, res.NumColors, bound)
			}
			// ε = 0 runs as 0.01, so it must be held to the 0.01 bound.
			if at001, _ := QualityBound(g, algo, 0.01); eps == 0 && bound != at001 {
				t.Errorf("%s: bound at ε=0 is %d, want the ε=0.01 bound %d", algo, bound, at001)
			}
		}
	}
	if _, err := QualityBound(g, "bogus", 0.1); err == nil {
		t.Fatal("bogus algorithm bound accepted")
	}
}

func TestDegeneracyAndCoreness(t *testing.T) {
	g, err := BarabasiAlbert(500, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := Degeneracy(g)
	if d != 4 {
		t.Fatalf("BA(k=4) degeneracy = %d", d)
	}
	core := Coreness(g)
	maxCore := int32(0)
	for _, c := range core {
		if c > maxCore {
			maxCore = c
		}
	}
	if int(maxCore) != d {
		t.Fatalf("max coreness %d != degeneracy %d", maxCore, d)
	}
}

func TestApproxDegeneracyOrder(t *testing.T) {
	g, err := ErdosRenyi(1000, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	ord := ApproxDegeneracyOrder(g, 0.1, Options{Procs: 2, Seed: 1})
	if len(ord.Rank) != g.NumVertices() {
		t.Fatal("rank length wrong")
	}
	if ord.Iterations < 1 {
		t.Fatal("no iterations recorded")
	}
	if ord.ApproxFactor != 2.2 {
		t.Fatalf("approx factor %v", ord.ApproxFactor)
	}
	d := Degeneracy(g)
	// Check the guarantee empirically.
	for v := 0; v < g.NumVertices(); v++ {
		c := 0
		for _, u := range g.Neighbors(uint32(v)) {
			if ord.Rank[u] >= ord.Rank[v] {
				c++
			}
		}
		if float64(c) > ord.ApproxFactor*float64(d) {
			t.Fatalf("vertex %d has %d equal-or-higher neighbors (bound %.1f·%d)",
				v, c, ord.ApproxFactor, d)
		}
	}
}

func TestGraphConstructionAndIO(t *testing.T) {
	g, err := NewGraph(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 3 {
		t.Fatalf("round trip lost edges: %d", g2.NumEdges())
	}
}

func TestGenerators(t *testing.T) {
	if g, err := Community(100, 4, 0.3, 50, 1); err != nil || g.NumVertices() != 100 {
		t.Fatal("community generator broken")
	}
	if g, err := Grid2D(5, 6); err != nil || g.NumVertices() != 30 {
		t.Fatal("grid generator broken")
	}
	stats := ComputeStats(mustGraph(t))
	if stats.N != 9 || stats.M != 12 { // 3x3 lattice: 6 horizontal + 6 vertical
		t.Fatalf("stats=%+v", stats)
	}
}

func mustGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := Grid2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFormatResult(t *testing.T) {
	g := mustGraph(t)
	res, err := Color(g, JPADG, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := FormatResult("JP-ADG", res)
	if !strings.Contains(s, "colors") {
		t.Fatalf("format output %q", s)
	}
}

func TestDeterministicColors(t *testing.T) {
	g, err := ErdosRenyi(500, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{JPADG, DECADGITR, ITR} {
		a, err := Color(g, algo, Options{Procs: 1, Seed: 5, Epsilon: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Color(g, algo, Options{Procs: 4, Seed: 5, Epsilon: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.Colors {
			if a.Colors[v] != b.Colors[v] {
				t.Errorf("%s: colors differ across proc counts", algo)
				break
			}
		}
	}
}

func TestDensestSubgraphAPI(t *testing.T) {
	g, err := Community(500, 5, 0.5, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds := DensestSubgraph(g, 0.1, Options{Procs: 2})
	if len(ds.Vertices) == 0 || ds.Density <= 0 {
		t.Fatalf("densest subgraph empty: %+v", ds)
	}
	if ds.ApproxFactor != 2.2 {
		t.Fatalf("approx factor %v", ds.ApproxFactor)
	}
	// Density is at least half the overall graph density.
	overall := float64(g.NumEdges()) / float64(g.NumVertices())
	if ds.Density < overall {
		t.Fatalf("densest density %.2f below whole-graph %.2f", ds.Density, overall)
	}
}

func TestMaximalCliquesAPI(t *testing.T) {
	g, err := NewGraph(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var cliques [][]uint32
	MaximalCliques(g, 0.1, Options{Procs: 2, Seed: 1}, func(c []uint32) {
		cliques = append(cliques, append([]uint32(nil), c...))
	})
	// Expect the triangle {0,1,2} and the edge {3,4}.
	if len(cliques) != 2 {
		t.Fatalf("got %d cliques: %v", len(cliques), cliques)
	}
}

func TestImproveColoringAPI(t *testing.T) {
	g, err := Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Color(g, JPR, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	improved, k, err := ImproveColoring(g, res.Colors, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, improved); err != nil {
		t.Fatal(err)
	}
	if k > res.NumColors {
		t.Fatalf("recoloring grew colors %d -> %d", res.NumColors, k)
	}
	// Improper input is rejected.
	if _, _, err := ImproveColoring(g, make([]uint32, g.NumVertices()), 1, 1); err == nil {
		t.Fatal("improper coloring accepted")
	}
}

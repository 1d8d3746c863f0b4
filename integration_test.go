package parcolor

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/jp"
	"repro/internal/order"
	"repro/internal/verify"
)

// TestJPEqualsSequentialGreedyForEveryOrdering is the strongest cross-
// validation in the repository: Jones–Plassmann is exactly the parallel
// execution of sequential Greedy under the same total priority order
// (§IV-A), so for every ordering heuristic the two engines must emit the
// IDENTICAL color for every vertex. A scheduling bug in JP or an
// ordering bug in Greedy cannot pass this.
func TestJPEqualsSequentialGreedyForEveryOrdering(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	for name, mk := range map[string]func() (*graph.Graph, error){
		"er":   func() (*graph.Graph, error) { return gen.ErdosRenyiGNM(400, 2000, 1, 2) },
		"kron": func() (*graph.Graph, error) { return gen.Kronecker(9, 8, 2, 2) },
		"comm": func() (*graph.Graph, error) { return gen.Community(200, 4, 0.4, 200, 3, 2) },
		"grid": func() (*graph.Graph, error) { return gen.Grid2D(15, 15, 2) },
	} {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	for gname, g := range graphs {
		orderings := map[string]*order.Ordering{
			"FF":    order.FirstFit(g),
			"R":     order.Random(g, 7),
			"LF":    order.LargestFirst(g, 7),
			"LLF":   order.LargestLogFirst(g, 7),
			"SL":    order.SmallestLast(g),
			"SLL":   order.SmallestLogLast(g, 7, 2),
			"ID":    order.IncidenceDegree(g),
			"ADG":   order.ADG(g, order.ADGOptions{Epsilon: 0.1, Procs: 2, Seed: 7}),
			"ADG-O": order.ADG(g, order.ADGOptions{Epsilon: 0.1, Procs: 2, Seed: 7, Sorted: true}),
			"ADG-M": order.ADG(g, order.ADGOptions{Median: true, Procs: 2, Seed: 7}),
		}
		for oname, ord := range orderings {
			par := jp.Color(g, ord, 4)
			seq := greedy.Color(g, ord)
			for v := range par.Colors {
				if par.Colors[v] != seq.Colors[v] {
					t.Errorf("%s/%s: JP and Greedy disagree at vertex %d (%d vs %d)",
						gname, oname, v, par.Colors[v], seq.Colors[v])
					break
				}
			}
		}
	}
}

// TestAllAlgorithmsRespectChromaticLowerBound sanity-checks against the
// clique number: a graph containing K_k needs at least k colors, so no
// algorithm may report fewer.
func TestAllAlgorithmsRespectChromaticLowerBound(t *testing.T) {
	// K12 plus a sparse halo.
	edges := []Edge{}
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			edges = append(edges, Edge{U: uint32(u), V: uint32(v)})
		}
	}
	for v := 12; v < 100; v++ {
		edges = append(edges, Edge{U: uint32(v - 1), V: uint32(v)})
	}
	g, err := NewGraph(100, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms() {
		res, err := Color(g, algo, Options{Procs: 2, Seed: 3, Epsilon: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumColors < 12 {
			t.Errorf("%s reported %d colors; K12 requires 12 — improper or miscounted", algo, res.NumColors)
		}
	}
}

// TestSeededReproducibilityEndToEnd re-runs each headline algorithm twice
// with the same seed and demands bit-identical colorings.
func TestSeededReproducibilityEndToEnd(t *testing.T) {
	g, err := gen.Community(300, 5, 0.3, 400, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{JPADG, JPADGM, DECADG, DECADGITR, ITR, ITRB, LubyMIS} {
		a, err := Color(g, algo, Options{Procs: 2, Seed: 21, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Color(g, algo, Options{Procs: 2, Seed: 21, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for v := range a.Colors {
			if a.Colors[v] != b.Colors[v] {
				t.Errorf("%s: same-seed runs diverge at vertex %d", algo, v)
				break
			}
		}
	}
}

// TestColoringPipelineWithIOAndRecolor exercises the full library
// pipeline a downstream user would run: generate → write → read →
// color → improve → verify.
func TestColoringPipelineWithIOAndRecolor(t *testing.T) {
	g1, err := BarabasiAlbert(1000, 5, 13)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g1); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Color(g2, DECADGITR, Options{Seed: 2, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	improved, k, err := ImproveColoring(g2, res.Colors, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if k > res.NumColors {
		t.Fatal("recoloring increased colors")
	}
	if err := Verify(g2, improved); err != nil {
		t.Fatal(err)
	}
	if !verify.IsProper(g2, improved, 2) {
		t.Fatal("final coloring improper")
	}
}

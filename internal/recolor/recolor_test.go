package recolor

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jp"
	"repro/internal/order"
	"repro/internal/verify"
)

func baseColoring(t *testing.T, g *graph.Graph) []uint32 {
	t.Helper()
	res := jp.Color(g, order.Random(g, 1), 2)
	return res.Colors
}

func TestNeverIncreasesColors(t *testing.T) {
	graphs := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return gen.ErdosRenyiGNM(300, 1500, 1, 2) },
		func() (*graph.Graph, error) { return gen.Kronecker(9, 8, 2, 2) },
		func() (*graph.Graph, error) { return gen.Community(180, 3, 0.5, 150, 4, 2) },
	}
	for gi, mk := range graphs {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		base := baseColoring(t, g)
		before := verify.NumColors(base)
		for _, s := range []Strategy{ReverseOrder, LargestFirstOrder, RandomOrder} {
			res, err := IteratedGreedy(g, base, s, 5, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckProper(g, res.Colors); err != nil {
				t.Fatalf("graph %d strategy %d: %v", gi, s, err)
			}
			if res.NumColors > before {
				t.Fatalf("graph %d strategy %d: colors grew %d -> %d", gi, s, before, res.NumColors)
			}
		}
	}
}

func TestImprovesBadColoring(t *testing.T) {
	// JP-R on a grid wastes colors; iterated greedy should recover some.
	g, err := gen.Grid2D(30, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := baseColoring(t, g)
	res, err := IteratedGreedy(g, base, ReverseOrder, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors > verify.NumColors(base) {
		t.Fatal("recoloring made the grid worse")
	}
	if verify.NumColors(base) > 3 && res.NumColors >= verify.NumColors(base) {
		t.Fatalf("no improvement on wasteful grid coloring (%d -> %d)",
			verify.NumColors(base), res.NumColors)
	}
}

func TestRejectsImproperInput(t *testing.T) {
	g, err := gen.Path(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IteratedGreedy(g, []uint32{1, 1, 1, 1}, ReverseOrder, 3, 1); err == nil {
		t.Fatal("improper input accepted")
	}
}

func TestInputNotMutated(t *testing.T) {
	g, err := gen.Cycle(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := baseColoring(t, g)
	snapshot := append([]uint32(nil), base...)
	if _, err := IteratedGreedy(g, base, RandomOrder, 3, 9); err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i] != snapshot[i] {
			t.Fatal("IteratedGreedy mutated its input")
		}
	}
}

func TestFixedPointStopsEarly(t *testing.T) {
	// A 2-coloring of a bipartite graph is optimal; reverse-order passes
	// must stop at the fixed point instead of burning all passes.
	g, err := gen.CompleteBipartite(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]uint32, 16)
	for v := 0; v < 8; v++ {
		colors[v] = 1
	}
	for v := 8; v < 16; v++ {
		colors[v] = 2
	}
	res, err := IteratedGreedy(g, colors, ReverseOrder, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 2 {
		t.Fatalf("optimal coloring degraded to %d", res.NumColors)
	}
	if res.Passes > 3 {
		t.Fatalf("did not stop at fixed point: %d passes", res.Passes)
	}
}

func TestProperty(t *testing.T) {
	check := func(seed uint64, nRaw, mRaw uint8, sRaw uint8) bool {
		n := int(nRaw%30) + 2
		g, err := gen.ErdosRenyiGNM(n, int64(mRaw)%100, seed, 1)
		if err != nil {
			return false
		}
		res := jp.Color(g, order.Random(g, seed), 1)
		out, err := IteratedGreedy(g, res.Colors, Strategy(sRaw%3), 4, seed)
		if err != nil {
			return false
		}
		return verify.IsProper(g, out.Colors, 1) &&
			out.NumColors <= verify.NumColors(res.Colors)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

package jp

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/mex"
	"repro/internal/order"
	"repro/internal/verify"
	"repro/internal/xrand"
)

// variant is one JP-X scheme: the ordering JP colors by, built from the
// worker count p, the seed and ADG's ε.
type variant struct {
	name  string
	order func(g *graph.Graph, p int, seed uint64, eps float64) *order.Ordering
}

// run colors g by the variant's ordering with p workers.
func (va variant) run(g *graph.Graph, p int, seed uint64, eps float64) *Result {
	return Color(g, va.order(g, p, seed, eps), p)
}

func variants() []variant {
	// ADG-M ignores ε.
	adg := func(median, sorted bool) func(*graph.Graph, int, uint64, float64) *order.Ordering {
		return func(g *graph.Graph, p int, seed uint64, eps float64) *order.Ordering {
			return order.ADG(g, order.ADGOptions{Epsilon: eps, Median: median, Procs: p, Seed: seed, Sorted: sorted})
		}
	}
	return []variant{
		{"JP-FF", func(g *graph.Graph, _ int, _ uint64, _ float64) *order.Ordering { return order.FirstFit(g) }},
		{"JP-R", func(g *graph.Graph, _ int, seed uint64, _ float64) *order.Ordering { return order.Random(g, seed) }},
		{"JP-LF", func(g *graph.Graph, _ int, seed uint64, _ float64) *order.Ordering {
			return order.LargestFirst(g, seed)
		}},
		{"JP-LLF", func(g *graph.Graph, _ int, seed uint64, _ float64) *order.Ordering {
			return order.LargestLogFirst(g, seed)
		}},
		{"JP-SL", func(g *graph.Graph, _ int, _ uint64, _ float64) *order.Ordering { return order.SmallestLast(g) }},
		{"JP-SLL", func(g *graph.Graph, p int, seed uint64, _ float64) *order.Ordering {
			return order.SmallestLogLast(g, seed, p)
		}},
		{"JP-ASL", func(g *graph.Graph, p int, seed uint64, _ float64) *order.Ordering {
			return order.ApproxSmallestLast(g, seed, p)
		}},
		{"JP-ADG", adg(false, false)},
		{"JP-ADG-M", adg(true, false)},
		{"JP-ADG-O", adg(false, true)},
		{"JP-ADG-M-O", adg(true, true)},
	}
}

// lookup returns the variant called name.
func lookup(t testing.TB, name string) variant {
	for _, va := range variants() {
		if va.name == name {
			return va
		}
	}
	t.Fatalf("no variant %s", name)
	return variant{}
}

func testGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	add := func(name string) func(*graph.Graph, error) {
		return func(g *graph.Graph, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = g
		}
	}
	add("er")(gen.ErdosRenyiGNM(300, 1500, 1, 2))
	add("kron")(gen.Kronecker(9, 8, 2, 2))
	add("ba")(gen.BarabasiAlbert(400, 5, 3, 2))
	add("grid")(gen.Grid2D(17, 23, 2))
	add("star")(gen.Star(150, 2))
	add("clique")(gen.Complete(25, 2))
	add("cycle-odd")(gen.Cycle(31, 2))
	add("cycle-even")(gen.Cycle(32, 2))
	add("bip")(gen.CompleteBipartite(12, 35, 2))
	add("comm")(gen.Community(180, 3, 0.5, 150, 4, 2))
	add("edgeless")(graph.FromEdges(7, nil, 1))
	add("empty")(graph.FromEdges(0, nil, 1))
	return out
}

func TestAllVariantsProduceProperColorings(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, va := range variants() {
			res := va.run(g, 2, 42, 0.1)
			if err := verify.CheckProper(g, res.Colors); err != nil {
				t.Errorf("%s/%s: %v", gname, va.name, err)
			}
		}
	}
}

func TestQualityGuarantees(t *testing.T) {
	// Table III: every variant respects its provable bound. The ADG bounds
	// (Corollaries 1-2) and SL's d+1 are the paper's headline guarantees.
	eps := 0.1
	for gname, g := range testGraphs(t) {
		d := kcore.Degeneracy(g)
		for _, va := range variants() {
			res := va.run(g, 2, 7, eps)
			bound := verify.QualityBound(va.name, g, d, eps)
			if err := verify.AssertBound(va.name, res.NumColors, bound); err != nil {
				t.Errorf("%s: %v (d=%d, Δ=%d)", gname, err, d, g.MaxDegree())
			}
		}
	}
}

func TestChromaticOptimaOnStructuredGraphs(t *testing.T) {
	// Greedy in any order 2-colors trees/bipartite graphs? No — but SL-like
	// degeneracy orders do. Check known-chromatic structures where the d+1
	// guarantee pins the answer exactly.
	g := testGraphs(t)
	sl, adg, r := lookup(t, "JP-SL"), lookup(t, "JP-ADG"), lookup(t, "JP-R")
	// Even cycle: d=2 so JP-SL ≤ 3; chromatic number 2.
	res := sl.run(g["cycle-even"], 2, 0, 0)
	if res.NumColors > 3 {
		t.Errorf("even cycle: JP-SL used %d colors", res.NumColors)
	}
	// Odd cycle: chromatic number 3, JP-SL ≤ d+1 = 3.
	res = sl.run(g["cycle-odd"], 2, 0, 0)
	if res.NumColors != 3 {
		t.Errorf("odd cycle: JP-SL used %d colors, want 3", res.NumColors)
	}
	// Clique K25 needs exactly 25.
	res = adg.run(g["clique"], 2, 0, 0.1)
	if res.NumColors != 25 {
		t.Errorf("K25: %d colors, want 25", res.NumColors)
	}
	// Star: d=1, JP-SL ≤ 2.
	res = sl.run(g["star"], 2, 0, 0)
	if res.NumColors != 2 {
		t.Errorf("star: JP-SL used %d colors, want 2", res.NumColors)
	}
	// Edgeless: one color.
	res = r.run(g["edgeless"], 2, 1, 0)
	if res.NumColors != 1 {
		t.Errorf("edgeless: %d colors, want 1", res.NumColors)
	}
	// Empty graph: zero colors, no crash.
	res = adg.run(g["empty"], 2, 0, 0)
	if res.NumColors != 0 || len(res.Colors) != 0 {
		t.Error("empty graph mishandled")
	}
}

func TestDeterminismAcrossProcs(t *testing.T) {
	// JP's coloring is a function of the DAG only (Las Vegas property):
	// identical colors for any worker count given the same ordering.
	for gname, g := range testGraphs(t) {
		ord := order.ADG(g, order.ADGOptions{Epsilon: 0.2, Procs: 2, Seed: 5})
		base := Color(g, ord, 1)
		for _, p := range []int{2, 4} {
			res := Color(g, ord, p)
			for v := range base.Colors {
				if res.Colors[v] != base.Colors[v] {
					t.Errorf("%s: color[%d] differs between p=1 and p=%d", gname, v, p)
					break
				}
			}
			if res.Rounds != base.Rounds {
				t.Errorf("%s: rounds differ: %d vs %d", gname, base.Rounds, res.Rounds)
			}
		}
	}
}

func TestRoundsEqualLongestPath(t *testing.T) {
	// The frontier-round count must equal the longest path in Gρ — the
	// quantity Lemma 7 bounds.
	for gname, g := range testGraphs(t) {
		if g.NumVertices() == 0 {
			continue
		}
		ord := order.Random(g, 3)
		res := Color(g, ord, 2)
		want := order.LongestPath(g, ord.Keys)
		if res.Rounds != want {
			t.Errorf("%s: rounds=%d longest path=%d", gname, res.Rounds, want)
		}
	}
}

func TestFusedPredCountMatchesUnfused(t *testing.T) {
	// JP must produce the identical coloring whether the DAG in-degrees
	// come from the fused ADG-O pass or are recomputed from keys.
	for gname, g := range testGraphs(t) {
		ord := order.ADG(g, order.ADGOptions{Epsilon: 0.1, Procs: 2, Seed: 9, Sorted: true})
		fused := Color(g, ord, 2)
		stripped := &order.Ordering{Name: ord.Name, Keys: ord.Keys, Rank: ord.Rank}
		unfused := Color(g, stripped, 2)
		for v := range fused.Colors {
			if fused.Colors[v] != unfused.Colors[v] {
				t.Errorf("%s: fused/unfused colors differ at %d", gname, v)
				break
			}
		}
	}
}

func TestSequentialGreedyEquivalence(t *testing.T) {
	// With FF priorities, JP computes exactly the sequential first-fit
	// greedy coloring (same colors as a left-to-right scan), also when
	// each vertex must avoid fixed colors held outside the graph.
	g := testGraphs(t)["er"]
	n := g.NumVertices()
	// firstFit is the left-to-right scan, each vertex also avoiding
	// fixed[fixedOff[v]:fixedOff[v+1]] (none when fixedOff is nil).
	firstFit := func(fixedOff []int, fixed []uint32) []uint32 {
		want := make([]uint32, n)
		for v := 0; v < n; v++ {
			taken := map[uint32]bool{}
			if fixedOff != nil {
				for _, c := range fixed[fixedOff[v]:fixedOff[v+1]] {
					taken[c] = true
				}
			}
			for _, u := range g.Neighbors(uint32(v)) {
				if u < uint32(v) {
					taken[want[u]] = true
				}
			}
			c := uint32(1)
			for taken[c] {
				c++
			}
			want[v] = c
		}
		return want
	}
	check := func(t *testing.T, got, want []uint32) {
		t.Helper()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("JP-FF differs from sequential greedy at %d: %d vs %d", v, got[v], want[v])
			}
		}
	}
	t.Run("plain", func(t *testing.T) {
		check(t, Color(g, order.FirstFit(g), 2).Colors, firstFit(nil, nil))
	})

	// Random fixed colors, up to Δ+3 per vertex and up to color Δ+4;
	// vertex 0 holds Δ+2 distinct ones, 1..Δ+2, more than a mex set
	// sized by degree alone tracks, so it must take color Δ+3.
	maxDeg := g.MaxDegree()
	rng := xrand.New(17)
	fixedOff := make([]int, n+1)
	var fixed []uint32
	for v := 0; v < n; v++ {
		if v == 0 {
			for c := maxDeg + 2; c >= 1; c-- {
				fixed = append(fixed, uint32(c))
			}
		} else {
			for k := rng.Intn(maxDeg + 4); k > 0; k-- {
				fixed = append(fixed, uint32(rng.Intn(maxDeg+4)+1))
			}
		}
		fixedOff[v+1] = len(fixed)
	}
	want := firstFit(fixedOff, fixed)
	if want[0] != uint32(maxDeg+3) {
		t.Fatalf("fixture: vertex 0 gets color %d, want Δ+3 = %d", want[0], maxDeg+3)
	}
	for _, p := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("fixed/p=%d", p), func(t *testing.T) {
			res, err := ColorFixed(context.Background(), g, order.FirstFit(g), p, fixedOff, fixed)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res.Colors, want)
		})
	}
}

func TestADGQualityBeatsRandomOnLowDegeneracy(t *testing.T) {
	// The paper's key quality claim: on graphs with d ≪ Δ, JP-ADG uses far
	// fewer colors than JP-R/JP-FF. Scale-free BA graphs are the canonical
	// case (§IV-E).
	g, err := gen.BarabasiAlbert(3000, 5, 17, 2)
	if err != nil {
		t.Fatal(err)
	}
	adg := lookup(t, "JP-ADG").run(g, 2, 3, 0.1)
	r := lookup(t, "JP-R").run(g, 2, 3, 0)
	if adg.NumColors > r.NumColors {
		t.Errorf("JP-ADG (%d colors) worse than JP-R (%d colors)", adg.NumColors, r.NumColors)
	}
	d := kcore.Degeneracy(g)
	if adg.NumColors > 2*d+2 {
		t.Errorf("JP-ADG used %d colors on d=%d graph", adg.NumColors, d)
	}
}

func TestMetricsPopulated(t *testing.T) {
	g := testGraphs(t)["kron"]
	ord := order.Random(g, 1)
	res := Color(g, ord, 2)
	if res.EdgesScanned <= 0 {
		t.Error("EdgesScanned not populated")
	}
	if res.AtomicOps <= 0 {
		t.Error("AtomicOps not populated")
	}
	// Every arc is scanned at least twice (DAG build + coloring).
	if res.EdgesScanned < 2*g.NumArcs() {
		t.Errorf("EdgesScanned=%d < 2*arcs=%d", res.EdgesScanned, 2*g.NumArcs())
	}
	// Exactly one Join per arc in the DAG direction.
	if res.AtomicOps != g.NumArcs()/2 {
		t.Errorf("AtomicOps=%d want m=%d", res.AtomicOps, g.NumArcs()/2)
	}
}

func TestRandomGraphProperty(t *testing.T) {
	check := func(seed uint64, nRaw, mRaw uint8, pick uint8) bool {
		n := int(nRaw%50) + 1
		m := int64(mRaw) % 200
		g, err := gen.ErdosRenyiGNM(n, m, seed, 1)
		if err != nil {
			return false
		}
		vs := variants()
		va := vs[int(pick)%len(vs)]
		res := va.run(g, 2, seed, 0.3)
		if !verify.IsProper(g, res.Colors, 2) {
			return false
		}
		return res.NumColors <= g.MaxDegree()+1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestScanFillsSuccessorBuffer covers the edges of JP's branch-free
// scan. color stores every neighbor and advances only past an
// uncolored one, so a vertex whose neighbors are all uncolored fills a
// successor buffer of exactly its degree, and the release keeps, in
// order, the successors whose last predecessor it was.
func TestScanFillsSuccessorBuffer(t *testing.T) {
	ns := []uint32{3, 1, 4, 2}
	for _, shared := range []bool{false, true} {
		// All uncolored, each with v as its last predecessor: the
		// buffer, exactly deg slots past the one vertex released
		// earlier, fills to the last slot and is released whole.
		st := workerState{mex: mex.New(len(ns)), next: make([]uint32, 1, 1+len(ns))}
		counts := []int32{1, 1, 1, 1, 1}
		if c := st.color(ns, nil, make([]uint32, 5), counts, shared); c != 1 {
			t.Fatalf("shared=%v, all uncolored: color %d, want 1", shared, c)
		}
		if want := []uint32{0, 3, 1, 4, 2}; !slices.Equal(st.next, want) || cap(st.next) != len(want) {
			t.Fatalf("shared=%v, all uncolored: next %v (cap %d), want %v in place", shared, st.next, cap(st.next), want)
		}
		// Vertices 1 and 3 hold colors 2 and 1, and 4 keeps a pending
		// predecessor: only 2 is released, and color 3 is taken.
		st.next = st.next[:0]
		counts = []int32{0, 0, 1, 0, 2}
		if c := st.color(ns, nil, []uint32{0, 2, 0, 1, 0}, counts, shared); c != 3 {
			t.Fatalf("shared=%v, mixed: color %d, want 3", shared, c)
		}
		if !slices.Equal(st.next, []uint32{2}) || counts[4] != 1 || counts[2] != 0 {
			t.Fatalf("shared=%v, mixed: next %v, counts %v", shared, st.next, counts)
		}
		if st.edges != 8 || st.atoms != 6 {
			t.Fatalf("shared=%v: %d edges, %d joins; want 8 and 6", shared, st.edges, st.atoms)
		}
	}

	// End to end: two stars whose centers, 0 and 1, are the first
	// round's only vertices. Each center's neighbors are all uncolored,
	// so each fills its successor buffer to the last slot, the second
	// one past the first one's released leaves.
	var edges []graph.Edge
	for v := uint32(2); v < 40; v++ {
		edges = append(edges, graph.Edge{U: v % 2, V: v})
	}
	g, err := graph.FromEdges(40, edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		res := Color(g, order.FirstFit(g), p)
		for v, c := range res.Colors {
			want := uint32(2) // a leaf
			if v < 2 {
				want = 1 // a center
			}
			if c != want {
				t.Fatalf("p=%d: color of %d = %d, want %d", p, v, c, want)
			}
		}
		if res.Rounds != 2 || res.AtomicOps != 38 {
			t.Fatalf("p=%d: %d rounds, %d joins; want 2 and 38", p, res.Rounds, res.AtomicOps)
		}
	}
}

// BenchmarkJPADG times one JP-ADG run as the harness registry runs it
// (the ADG-O ordering at ε 0.01, then JP over its fused in-degrees) on
// kron:15, the cold_color graph, at p 1 and 2, and reports the order
// and color phases in ms per run, beside BenchmarkSPECADG in
// internal/speculate and BenchmarkDECADGITR in internal/spec.
func BenchmarkJPADG(b *testing.B) {
	g, err := gen.Kronecker(15, 16, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("kron15-p%d", p), func(b *testing.B) {
			var orderSec, colorSec float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				ord := order.ADG(g, order.ADGOptions{Epsilon: 0.01, Procs: p, Seed: 1, Sorted: true})
				ordered := time.Now()
				Color(g, ord, p)
				orderSec += ordered.Sub(start).Seconds()
				colorSec += time.Since(ordered).Seconds()
			}
			b.ReportMetric(1e3*orderSec/float64(b.N), "order-ms/op")
			b.ReportMetric(1e3*colorSec/float64(b.N), "color-ms/op")
		})
	}
}

func BenchmarkJPColorOnly(b *testing.B) {
	g, err := gen.Kronecker(13, 16, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	ord := order.Random(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Color(g, ord, 0)
	}
}

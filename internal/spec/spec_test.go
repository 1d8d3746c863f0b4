package spec

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
	"repro/internal/order"
	"repro/internal/verify"
	"repro/internal/xrand"
)

type algo struct {
	name string
	run  func(*graph.Graph, Options) *Result
}

func algos() []algo {
	return []algo{
		{"DEC-ADG", DECADG},
		{"DEC-ADG-M", DECADGM},
		{"DEC-ADG-ITR", DECADGITR},
		{"ITR", ITR},
		{"ITRB", ITRB},
		{"GM", GM},
		{"SIM-COL", func(g *graph.Graph, o Options) *Result { return SIMCOL(g, 0.5, o) }},
	}
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
	add("comm")(gen.Community(180, 3, 0.5, 150, 4, 2))
	add("bip")(gen.CompleteBipartite(12, 35, 2))
	add("edgeless")(graph.FromEdges(7, nil, 1))
	add("empty")(graph.FromEdges(0, nil, 1))
	return out
}

func TestAllSpeculativeSchemesProper(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, a := range algos() {
			res := a.run(g, Options{Procs: 2, Seed: 11, Epsilon: 5})
			if g.NumVertices() == 0 {
				if len(res.Colors) != 0 {
					t.Errorf("%s/%s: non-empty colors for empty graph", gname, a.name)
				}
				continue
			}
			if err := verify.CheckProper(g, res.Colors); err != nil {
				t.Errorf("%s/%s: %v", gname, a.name, err)
			}
		}
	}
}

func TestDECQualityBounds(t *testing.T) {
	// Claim 2 (DEC-ADG) and §IV-C (DEC-ADG-ITR): color counts stay within
	// the degeneracy-based guarantees, and the ADG decomposition (run at
	// ε/12) within its Lemma 1 round bound. ε = 5 is inside the paper's
	// valid band 4 < ε ≤ 8.
	eps := 5.0
	for gname, g := range testGraphs(t) {
		if g.NumVertices() == 0 {
			continue
		}
		d := kcore.Degeneracy(g)
		if d == 0 {
			continue
		}
		for _, a := range algos()[:3] { // the three DEC variants
			res := a.run(g, Options{Procs: 2, Seed: 11, Epsilon: eps})
			bound := verify.QualityBound(a.name, g, d, eps)
			if err := verify.AssertBound(a.name, res.NumColors, bound); err != nil {
				t.Errorf("%s: %v (d=%d)", gname, err, d)
			}
			if rounds := order.TheoreticalIterationBound(g.NumVertices(), eps/12); a.name != "DEC-ADG-M" && res.OrderIterations > rounds {
				t.Errorf("%s/%s: %d ADG rounds exceed bound %d", gname, a.name, res.OrderIterations, rounds)
			}
		}
	}
}

func TestDECADGITRSmallEpsilonQuality(t *testing.T) {
	// The practical configuration (Fig. 1 uses ε = 0.01): quality must
	// still respect ⌈2(1+ε)d⌉+1 because the color rule never exceeds
	// deg_ℓ(v)+1.
	for gname, g := range testGraphs(t) {
		if g.NumVertices() == 0 {
			continue
		}
		d := kcore.Degeneracy(g)
		if d == 0 {
			continue
		}
		res := DECADGITR(g, Options{Procs: 2, Seed: 7, Epsilon: 0.01})
		bound := verify.QualityBound("DEC-ADG-ITR", g, d, 0.01)
		if err := verify.AssertBound("DEC-ADG-ITR", res.NumColors, bound); err != nil {
			t.Errorf("%s: %v (d=%d)", gname, err, d)
		}
	}
}

func TestTrivialBoundForAllSchemes(t *testing.T) {
	// Everything speculative still respects Δ+1-ish sanity: ITR/ITRB/GM
	// are greedy-based so exactly Δ+1; DEC variants get their d-based
	// bounds checked above, here just proper coloring cardinality sanity.
	for gname, g := range testGraphs(t) {
		if g.NumVertices() == 0 {
			continue
		}
		for _, a := range []algo{{"ITR", ITR}, {"ITRB", ITRB}, {"GM", GM}} {
			res := a.run(g, Options{Procs: 2, Seed: 3})
			if res.NumColors > g.MaxDegree()+1 {
				t.Errorf("%s/%s: %d colors > Δ+1 = %d", gname, a.name, res.NumColors, g.MaxDegree()+1)
			}
		}
	}
}

func TestITRDeterministicAcrossProcs(t *testing.T) {
	// The synchronous double-buffered ITR is a deterministic function of
	// (graph, seed): scheduling must not alter the result.
	g := testGraphs(t)["comm"]
	base := ITR(g, Options{Procs: 1, Seed: 9})
	for _, p := range []int{2, 4} {
		res := ITR(g, Options{Procs: p, Seed: 9})
		for v := range base.Colors {
			if res.Colors[v] != base.Colors[v] {
				t.Fatalf("ITR color[%d] differs between p=1 and p=%d", v, p)
			}
		}
	}
}

func TestDECADGDeterministicAcrossProcs(t *testing.T) {
	g := testGraphs(t)["kron"]
	base := DECADG(g, Options{Procs: 1, Seed: 21, Epsilon: 5})
	for _, p := range []int{2, 4} {
		res := DECADG(g, Options{Procs: p, Seed: 21, Epsilon: 5})
		for v := range base.Colors {
			if res.Colors[v] != base.Colors[v] {
				t.Fatalf("DEC-ADG color[%d] differs between p=1 and p=%d", v, p)
			}
		}
	}
}

func TestDECBetterQualityThanITROnClusters(t *testing.T) {
	// §VI-D: DEC-ADG-ITR always uses no more (usually many fewer) colors
	// than plain ITR on cluster-heavy graphs — the paper reports up to
	// 40% reduction.
	g, err := gen.Community(600, 6, 0.3, 500, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	itr := ITR(g, Options{Procs: 2, Seed: 5})
	dec := DECADGITR(g, Options{Procs: 2, Seed: 5, Epsilon: 0.01})
	if dec.NumColors > itr.NumColors+2 {
		t.Errorf("DEC-ADG-ITR %d colors vs ITR %d — decomposition did not help",
			dec.NumColors, itr.NumColors)
	}
}

func TestSimColRoundsLogarithmic(t *testing.T) {
	// Lemma 10: SIM-COL finishes in O(log n) rounds w.h.p. for µ > 1.
	g, err := gen.ErdosRenyiGNM(2000, 10000, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := SIMCOL(g, 2.0, Options{Procs: 2, Seed: 1})
	if err := verify.CheckProper(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	// log2(2000) ≈ 11; allow a generous constant.
	if res.Rounds > 40 {
		t.Errorf("SIM-COL took %d rounds for n=2000, µ=2", res.Rounds)
	}
}

// TestSimColReadsOnlyUnresolvedEdges checks SIMCOL against a plain
// sequential model of Algorithm 5: the same colors, rounds and
// conflicts, and conflict detection reading exactly N_U(v), the
// still-uncolored neighbors, of every uncolored vertex in every round.
// EdgesScanned is those reads plus one scan of the whole graph to load
// the lists.
func TestSimColReadsOnlyUnresolvedEdges(t *testing.T) {
	g, err := gen.ErdosRenyiGNM(300, 2400, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	const mu, seed = 0.1, 3
	span := newSimColState(g, make([]uint32, g.NumVertices()), mu, seed, 1).span
	n := g.NumVertices()
	colors := make([]uint32, n)
	forbid := make([]map[uint32]bool, n)
	for v := range forbid {
		forbid[v] = map[uint32]bool{}
	}
	var active []uint32
	for v := 0; v < n; v++ {
		active = append(active, uint32(v))
	}
	rounds := 0
	var conflicts, reads int64
	for len(active) > 0 {
		rounds++
		inU := make([]bool, n)
		for _, v := range active {
			inU[v] = true
			colors[v] = roundColor(seed, rounds, v, span[v])
		}
		var lost []uint32
		for _, v := range active {
			bad := forbid[v][colors[v]]
			for _, u := range g.Neighbors(v) {
				if inU[u] {
					reads++
					bad = bad || colors[u] == colors[v]
				}
			}
			if bad {
				lost = append(lost, v)
			}
		}
		conflicts += int64(len(lost))
		for _, v := range lost {
			colors[v] = 0
		}
		for _, v := range lost {
			for _, u := range g.Neighbors(v) {
				if inU[u] && colors[u] != 0 {
					forbid[v][colors[u]] = true
				}
			}
		}
		active = lost
	}
	for _, p := range []int{1, 2} {
		res := SIMCOL(g, mu, Options{Procs: p, Seed: seed})
		if !slices.Equal(res.Colors, colors) || res.Rounds != rounds || res.Conflicts != conflicts {
			t.Errorf("p=%d: %d rounds and %d conflicts, model %d and %d (colors equal: %v)",
				p, res.Rounds, res.Conflicts, rounds, conflicts, slices.Equal(res.Colors, colors))
		}
		if want := g.NumArcs() + reads; res.EdgesScanned != want {
			t.Errorf("p=%d: EdgesScanned %d, want %d arcs loaded + %d read in detection",
				p, res.EdgesScanned, g.NumArcs(), reads)
		}
	}
}

func TestSimColQualityBound(t *testing.T) {
	// SIM-COL delivers a ((1+µ)Δ)-coloring by construction.
	g, err := gen.ErdosRenyiGNM(500, 3000, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	mu := 1.5
	res := SIMCOL(g, mu, Options{Procs: 2, Seed: 2})
	bound := int(float64(g.MaxDegree())*(1+mu)) + 2
	if res.NumColors > bound {
		t.Errorf("SIM-COL used %d colors > (1+µ)Δ bound %d", res.NumColors, bound)
	}
}

func TestConflictsDecreaseWithBatching(t *testing.T) {
	// ITRB's supersteps see fresher colors, so it cannot generate more
	// conflicts than one-shot ITR on the same seed (statistically; we
	// allow slack for small samples).
	g := testGraphs(t)["comm"]
	itr := ITR(g, Options{Procs: 2, Seed: 13})
	itrb := ITRB(g, Options{Procs: 2, Seed: 13, BatchSize: 16})
	if itrb.Conflicts > itr.Conflicts*2+8 {
		t.Errorf("ITRB conflicts %d ≫ ITR conflicts %d", itrb.Conflicts, itr.Conflicts)
	}
}

func TestMetricsPopulated(t *testing.T) {
	g := testGraphs(t)["kron"]
	for _, a := range algos() {
		res := a.run(g, Options{Procs: 2, Seed: 1, Epsilon: 5})
		if res.Rounds <= 0 {
			t.Errorf("%s: rounds not populated", a.name)
		}
		if res.EdgesScanned <= 0 {
			t.Errorf("%s: edges scanned not populated", a.name)
		}
	}
	dec := DECADG(g, Options{Procs: 2, Seed: 1, Epsilon: 5})
	if dec.OrderIterations <= 0 {
		t.Error("DEC-ADG: ADG iteration count missing")
	}
}

func TestSpeculativeRandomGraphsProperty(t *testing.T) {
	check := func(seed uint64, nRaw, mRaw uint8, pick uint8) bool {
		n := int(nRaw%40) + 1
		m := int64(mRaw) % 160
		g, err := gen.ErdosRenyiGNM(n, m, seed, 1)
		if err != nil {
			return false
		}
		as := algos()
		a := as[int(pick)%len(as)]
		res := a.run(g, Options{Procs: 2, Seed: seed, Epsilon: 5})
		return verify.IsProper(g, res.Colors, 2)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.procs() < 1 {
		t.Fatal("default procs < 1")
	}
	if o.epsilon() != 0.5 {
		t.Fatalf("default epsilon = %v", o.epsilon())
	}
}

// goldenFamilies builds the graphs whose DEC colorings the proptest
// goldens pin: the six proptest families plus kron12 and grid64.
func goldenFamilies(t *testing.T) map[string]*graph.Graph {
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
	add("kron")(gen.Kronecker(7, 8, 3, 0))
	add("er")(gen.ErdosRenyiGNM(400, 1600, 5, 0))
	add("grid")(gen.Grid2D(16, 16, 0))
	add("bipartite")(gen.CompleteBipartite(10, 30, 0))
	add("ws")(gen.WattsStrogatz(300, 6, 0.1, 9, 0))
	add("ba")(gen.BarabasiAlbert(300, 4, 11, 0))
	add("kron12")(gen.Kronecker(12, 8, 3, 0))
	add("grid64")(gen.Grid2D(64, 64, 0))
	return out
}

// branchyLoad is the partition load that loadPartition's branch-free
// scan replaced, for one vertex v of partition rl: Bv's bits 0..span
// from the colors of the neighbors in higher partitions, and the
// same-partition neighbors in adjacency order.
func branchyLoad(st *simColState, v, rl uint32) (bits []bool, list []uint32) {
	bits = make([]bool, st.span[v]+1)
	for _, u := range st.g.Neighbors(v) {
		if ru := st.rank[u]; ru > rl {
			if c := st.colors[u]; c <= st.span[v] {
				bits[c] = true
			}
		} else if ru == rl {
			list = append(list, u)
		}
	}
	return bits, list
}

// TestLoadPartitionMatchesBranchyLoad runs DEC-ADG and DEC-ADG-ITR
// partition by partition on the golden families at p ∈ {1, 2, 8} and
// checks every partition load against branchyLoad: the same lists in
// the same order and the same Bv bits 1..span (bit 0 is never read).
// The families hold vertices whose last arc is same-partition, whose
// store fills the list, and vertices whose last arc is not, whose
// store lands in the pad slot.
func TestLoadPartitionMatchesBranchyLoad(t *testing.T) {
	ctx := context.Background()
	lastSame, lastOther := 0, 0
	for name, g := range goldenFamilies(t) {
		for _, p := range []int{1, 2, 8} {
			for _, itrRule := range []bool{false, true} {
				opts := Options{Procs: p, Seed: 7, Epsilon: 0.01}
				ord, err := DecomposeOrderingContext(ctx, g, opts, false)
				if err != nil {
					t.Fatal(err)
				}
				st := newSimColState(g, ord.Rank, opts.epsilon()/4, opts.Seed, p)
				prio := xrand.New(opts.Seed+1).Perm(g.NumVertices(), nil)
				for l := len(ord.Partitions) - 1; l >= 0; l-- {
					part, rl := ord.Partitions[l], uint32(l)
					st.loadPartition(part, rl)
					for i, v := range part {
						bits, list := branchyLoad(st, v, rl)
						if got := st.adj[st.off[i]:st.end[i]]; !slices.Equal(got, list) {
							t.Fatalf("%s p=%d partition %d: vertex %d lists %v, want %v", name, p, l, v, got, list)
						}
						bv := st.forbidden(v)
						for c := 1; c < len(bits); c++ {
							if bv.Test(c) != bits[c] {
								t.Fatalf("%s p=%d partition %d: vertex %d Bv bit %d = %v, want %v", name, p, l, v, c, bv.Test(c), bits[c])
							}
						}
						if ns := g.Neighbors(v); len(ns) > 0 {
							if ord.Rank[ns[len(ns)-1]] == rl {
								lastSame++
							} else {
								lastOther++
							}
						}
					}
					st.simCol(part, itrRule, prio)
				}
			}
		}
	}
	if lastSame == 0 || lastOther == 0 {
		t.Fatalf("%d vertices end on a same-partition arc and %d on another; want both", lastSame, lastOther)
	}
}

func BenchmarkITR(b *testing.B) {
	g, err := gen.Kronecker(13, 16, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ITR(g, Options{Seed: 1})
	}
}

// BenchmarkDECADGITR times one DEC-ADG-ITR run as the harness registry
// runs it (the ADG decomposition at ε 0.01/12, then the partitions'
// SIM-COL rounds under the ITR rule) on kron:15, the cold_color graph,
// at p 1 and 2, and reports the decompose and color phases in ms per
// run, beside BenchmarkSPECADG in internal/speculate.
func BenchmarkDECADGITR(b *testing.B) {
	g, err := gen.Kronecker(15, 16, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("kron15-p%d", p), func(b *testing.B) {
			opts := Options{Procs: p, Seed: 1, Epsilon: 0.01}
			var decSec, colorSec float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				ord, err := DecomposeOrderingContext(ctx, g, opts, false)
				if err != nil {
					b.Fatal(err)
				}
				decomposed := time.Now()
				if _, err := ColorDecompositionContext(ctx, g, ord, opts, true); err != nil {
					b.Fatal(err)
				}
				decSec += decomposed.Sub(start).Seconds()
				colorSec += time.Since(decomposed).Seconds()
			}
			b.ReportMetric(1e3*decSec/float64(b.N), "decompose-ms/op")
			b.ReportMetric(1e3*colorSec/float64(b.N), "color-ms/op")
		})
	}
}

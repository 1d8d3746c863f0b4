// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI). Each Benchmark maps to one experiment of
// EXPERIMENTS.md's index (E1–E9); color counts, rounds and memory proxies
// are reported as custom benchmark metrics so `go test -bench` output
// carries the same quantities the paper's plots show. The colorbench CLI
// prints the full row/series form of the same experiments.
package parcolor

import (
	"fmt"
	"testing"

	"repro/internal/clique"
	"repro/internal/densest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/jp"
	"repro/internal/kcore"
	"repro/internal/order"
	"repro/internal/stats"
)

// benchGraph builds the shared medium Kronecker instance (scale 13,
// edge factor 16 ≈ 8k vertices / 105k edges after dedup).
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.Kronecker(13, 16, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// mustRun runs a registered algorithm, failing the benchmark on a run
// error (only cancellation can produce one, so it never fires here).
func mustRun(b *testing.B, a harness.Algorithm, g *graph.Graph, cfg harness.Config) *harness.RunResult {
	b.Helper()
	res, err := a.Run(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkSuiteStats is E9 (Table V stand-in): dataset construction and
// structural statistics including exact degeneracy.
func BenchmarkSuiteStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite, err := harness.BuildSuite(1)
		if err != nil {
			b.Fatal(err)
		}
		var totalD int
		for _, bg := range suite {
			totalD += kcore.Degeneracy(bg.G)
		}
		b.ReportMetric(float64(totalD), "sum-degeneracy")
	}
}

// BenchmarkTable2Orderings is E1 (Table II): every ordering heuristic on
// the shared graph; per-op metrics report rounds and the measured
// approximation factor.
func BenchmarkTable2Orderings(b *testing.B) {
	g := benchGraph(b)
	d := kcore.Degeneracy(g)
	entries := []struct {
		name string
		mk   func() *order.Ordering
	}{
		{"FF", func() *order.Ordering { return order.FirstFit(g) }},
		{"R", func() *order.Ordering { return order.Random(g, 1) }},
		{"LF", func() *order.Ordering { return order.LargestFirst(g, 1) }},
		{"LLF", func() *order.Ordering { return order.LargestLogFirst(g, 1) }},
		{"SL", func() *order.Ordering { return order.SmallestLast(g) }},
		{"SLL", func() *order.Ordering { return order.SmallestLogLast(g, 1, 0) }},
		{"ASL", func() *order.Ordering { return order.ApproxSmallestLast(g, 1, 0) }},
		{"ADG", func() *order.Ordering {
			return order.ADG(g, order.ADGOptions{Epsilon: 0.01, Seed: 1})
		}},
		{"ADG-M", func() *order.Ordering {
			return order.ADG(g, order.ADGOptions{Median: true, Seed: 1})
		}},
		{"ADG-O", func() *order.Ordering {
			return order.ADG(g, order.ADGOptions{Epsilon: 0.01, Seed: 1, Sorted: true})
		}},
	}
	for _, e := range entries {
		b.Run(e.name, func(b *testing.B) {
			var ord *order.Ordering
			for i := 0; i < b.N; i++ {
				ord = e.mk()
			}
			b.ReportMetric(float64(ord.Iterations), "rounds")
			back := order.MaxEqualOrHigherRankNeighbors(g, ord.Rank)
			if d > 0 {
				b.ReportMetric(float64(back)/float64(d), "approx-factor")
			}
		})
	}
}

// BenchmarkJP isolates the JP coloring phase — the frontier fork-join hot
// path — under one fixed ADG-O ordering, sweeping the worker count. On a
// single core the gap between p=1 (inline) and p>1 is pure scheduler
// overhead, which is exactly what the persistent pool is meant to remove.
func BenchmarkJP(b *testing.B) {
	g := benchGraph(b)
	ord := order.ADG(g, order.ADGOptions{Epsilon: 0.01, Seed: 1, Sorted: true})
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			var res *jp.Result
			for i := 0; i < b.N; i++ {
				res = jp.Color(g, ord, p)
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
		})
	}
}

// BenchmarkTable3Algorithms is E2 (Table III): the full algorithm matrix
// on the shared graph; colors reported per op.
func BenchmarkTable3Algorithms(b *testing.B) {
	g := benchGraph(b)
	cfg := harness.Config{Procs: 0, Seed: 1, Epsilon: 0.01}
	for _, a := range harness.Registry() {
		b.Run(a.Name, func(b *testing.B) {
			var colors int
			for i := 0; i < b.N; i++ {
				res := mustRun(b, a, g, cfg)
				colors = res.NumColors
			}
			b.ReportMetric(float64(colors), "colors")
		})
	}
}

// BenchmarkFig1RuntimeQuality is E3 (Fig. 1): per suite graph and
// algorithm, total runtime with the reorder share and relative quality
// reported as metrics.
func BenchmarkFig1RuntimeQuality(b *testing.B) {
	suite, err := harness.BuildSuite(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.Config{Procs: 0, Seed: 1, Epsilon: 0.01}
	for _, bg := range suite {
		baseAlgo, err := harness.Lookup("JP-R")
		if err != nil {
			b.Fatal(err)
		}
		base := mustRun(b, baseAlgo, bg.G, cfg)
		for _, name := range []string{"JP-ADG", "JP-ADG-M", "JP-SL", "JP-SLL", "JP-LLF", "JP-R", "ITR", "DEC-ADG-ITR"} {
			a, err := harness.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", bg.Name, name), func(b *testing.B) {
				var res *harness.RunResult
				for i := 0; i < b.N; i++ {
					res = mustRun(b, a, bg.G, cfg)
				}
				b.ReportMetric(float64(res.NumColors), "colors")
				b.ReportMetric(float64(res.NumColors)/float64(base.NumColors), "colors-vs-JP-R")
				if t := res.TotalSeconds(); t > 0 {
					b.ReportMetric(res.ReorderSeconds/t, "reorder-share")
				}
			})
		}
	}
}

// BenchmarkFig2WeakScaling is E4 (Fig. 2 left): Kronecker edge factor and
// worker count grown together; flat ns/op = good weak scaling.
func BenchmarkFig2WeakScaling(b *testing.B) {
	for _, pt := range []struct{ ef, procs int }{{1, 1}, {2, 2}, {4, 4}, {8, 8}} {
		g, err := gen.Kronecker(13, pt.ef, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"JP-ADG", "DEC-ADG-ITR", "JP-LLF", "ITR"} {
			a, err := harness.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg := harness.Config{Procs: pt.procs, Seed: 1, Epsilon: 0.01}
			b.Run(fmt.Sprintf("%s/ef%d-p%d", name, pt.ef, pt.procs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mustRun(b, a, g, cfg)
				}
			})
		}
	}
}

// BenchmarkFig2StrongScaling is E5 (Fig. 2 mid/right): fixed graph,
// worker count swept.
func BenchmarkFig2StrongScaling(b *testing.B) {
	g := benchGraph(b)
	for _, name := range []string{"JP-ADG", "DEC-ADG-ITR", "JP-LLF", "JP-R", "JP-SL", "ITR"} {
		a, err := harness.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range []int{1, 2, 4} {
			cfg := harness.Config{Procs: p, Seed: 1, Epsilon: 0.01}
			b.Run(fmt.Sprintf("%s/p%d", name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mustRun(b, a, g, cfg)
				}
			})
		}
	}
}

// BenchmarkFig3Epsilon is E6 (Fig. 3): ε swept for JP-ADG and
// DEC-ADG-ITR; colors and ADG rounds reported as metrics.
func BenchmarkFig3Epsilon(b *testing.B) {
	g := benchGraph(b)
	for _, eps := range []float64{0.01, 0.1, 1.0} {
		for _, name := range []string{"JP-ADG", "DEC-ADG-ITR"} {
			a, err := harness.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg := harness.Config{Procs: 0, Seed: 1, Epsilon: eps}
			b.Run(fmt.Sprintf("%s/eps%.2f", name, eps), func(b *testing.B) {
				var res *harness.RunResult
				for i := 0; i < b.N; i++ {
					res = mustRun(b, a, g, cfg)
				}
				b.ReportMetric(float64(res.NumColors), "colors")
				b.ReportMetric(float64(res.Rounds), "rounds")
			})
		}
	}
}

// BenchmarkFig4Memory is E7 (Fig. 4): memory-pressure software proxies
// per algorithm (edges scanned and atomics per edge, conflicts per
// vertex) — the PAPI substitution documented in EXPERIMENTS.md.
func BenchmarkFig4Memory(b *testing.B) {
	g := benchGraph(b)
	m := float64(g.NumEdges())
	cfg := harness.Config{Procs: 0, Seed: 1, Epsilon: 0.01}
	for _, name := range []string{"JP-ADG", "JP-SL", "JP-LLF", "JP-R", "ITR", "DEC-ADG-ITR", "GM"} {
		a, err := harness.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var res *harness.RunResult
			for i := 0; i < b.N; i++ {
				res = mustRun(b, a, g, cfg)
			}
			b.ReportMetric(float64(res.EdgesScanned)/m, "edges-scanned/m")
			b.ReportMetric(float64(res.AtomicOps)/m, "atomics/m")
			b.ReportMetric(float64(res.Conflicts)/float64(g.NumVertices()), "conflicts/n")
		})
	}
}

// BenchmarkFig5Profile is E8 (Fig. 5): computing the Dolan–Moré quality
// profile over the suite; the fraction of instances where JP-ADG is
// within 5% of the best is reported as a metric.
func BenchmarkFig5Profile(b *testing.B) {
	suite, err := harness.BuildSuite(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.Config{Procs: 0, Seed: 1, Epsilon: 0.01}
	algos := []string{"JP-ADG", "JP-SL", "JP-SLL", "JP-LLF", "JP-LF", "JP-R", "JP-FF", "ITR", "DEC-ADG-ITR"}
	results := map[string][]float64{}
	for _, name := range algos {
		a, err := harness.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, bg := range suite {
			res := mustRun(b, a, bg.G, cfg)
			results[name] = append(results[name], float64(res.NumColors))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profiles, err := stats.PerfProfile(results)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.ProfileAt(profiles["JP-ADG"], 1.05), "JP-ADG-within-1.05")
	}
}

// BenchmarkAblationADG regenerates §VI-J's design-choice analysis as
// sub-benchmarks: the CRCW UPDATE (push, or pull where that is cheaper)
// against CREW (pull only), cached degree sums, batch sorting with three
// integer sorts, and the median threshold.
func BenchmarkAblationADG(b *testing.B) {
	g := benchGraph(b)
	variants := []struct {
		name string
		opts order.ADGOptions
	}{
		{"crcw", order.ADGOptions{Epsilon: 0.01, Seed: 1}},
		{"crew-pull", order.ADGOptions{Epsilon: 0.01, Seed: 1, CREW: true}},
		{"cached-sums", order.ADGOptions{Epsilon: 0.01, Seed: 1, CacheDegreeSums: true}},
		{"sorted-counting", order.ADGOptions{Epsilon: 0.01, Seed: 1, Sorted: true}},
		{"sorted-radix", order.ADGOptions{Epsilon: 0.01, Seed: 1, Sorted: true, Sort: order.SortRadix}},
		{"sorted-quick", order.ADGOptions{Epsilon: 0.01, Seed: 1, Sorted: true, Sort: order.SortQuick}},
		{"median", order.ADGOptions{Seed: 1, Median: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var ord *order.Ordering
			for i := 0; i < b.N; i++ {
				ord = order.ADG(g, v.opts)
			}
			b.ReportMetric(float64(ord.Iterations), "rounds")
		})
	}
}

// BenchmarkDegeneracyApplications exercises the ADG-reuse applications
// of §VII: densest subgraph by batch peeling and ELS clique counting.
func BenchmarkDegeneracyApplications(b *testing.B) {
	g, err := gen.BarabasiAlbert(20000, 6, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("densest-adg-peel", func(b *testing.B) {
		var density float64
		for i := 0; i < b.N; i++ {
			density = densest.ADGPeel(g, 0.1, 0).Density
		}
		b.ReportMetric(density, "density")
	})
	b.Run("cliques-els", func(b *testing.B) {
		keys := clique.OrderADG(g, 0.1, 1, 0)
		b.ResetTimer()
		var count int
		for i := 0; i < b.N; i++ {
			count, _ = clique.Count(g, keys, 0)
		}
		b.ReportMetric(float64(count), "cliques")
	})
}

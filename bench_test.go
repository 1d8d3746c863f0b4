// Benchmarks over the paper's evaluation (§VI). BenchmarkExperiments
// times each colorbench experiment of harness.Experiments() — one
// sub-benchmark per experiment of EXPERIMENTS.md's index — so the
// E-series loops exist once, in internal/harness; the colorbench CLI
// prints the tables those experiments build. BenchmarkJP and
// BenchmarkDegeneracyApplications isolate one engine phase each.
package parcolor

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/clique"
	"repro/internal/densest"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/jp"
	"repro/internal/order"
)

// BenchmarkExperiments runs every experiment at scale 1 with one trial
// per point; select one with -bench 'BenchmarkExperiments/table2'.
func BenchmarkExperiments(b *testing.B) {
	exps := harness.Experiments()
	names := make([]string, 0, len(exps))
	for name := range exps {
		names = append(names, name)
	}
	sort.Strings(names)
	opts := harness.Options{Scale: 1, Seed: 1, Trials: 1}
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exps[name](opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJP isolates the JP coloring phase — the frontier fork-join hot
// path — under one fixed ADG-O ordering of the medium Kronecker instance
// (scale 13, edge factor 16 ≈ 8k vertices / 105k edges after dedup),
// sweeping the worker count. On a single core the gap between p=1
// (inline) and p>1 is pure scheduler overhead, which is exactly what the
// persistent pool is meant to remove.
func BenchmarkJP(b *testing.B) {
	g, err := gen.Kronecker(13, 16, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
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

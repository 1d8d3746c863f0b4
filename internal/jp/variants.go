package jp

import (
	"repro/internal/graph"
	"repro/internal/order"
)

// Options configures the JP-X convenience wrappers. All variants run on
// the process-wide persistent par pool: orderings and the JP engine share
// its workers, its edge-balanced frontier partitioning and its adaptive
// sequential cutoff, so sweeping Procs never re-creates scheduler state.
type Options struct {
	// Procs is the worker count (<= 0: GOMAXPROCS).
	Procs int
	// Seed drives random tie-breaking (and the R ordering).
	Seed uint64
	// Epsilon is ADG's ε for the ADG-based variants.
	Epsilon float64
	// Optimized selects the fused ADG-O ordering (§V-A..C) for JP-ADG:
	// total in-batch order by residual degree plus fused DAG construction.
	Optimized bool
	// CREW selects the concurrent-read-only ADG UPDATE (Algorithm 2).
	CREW bool
}

// FF runs JP with the first-fit (natural) order.
func FF(g *graph.Graph, o Options) (*Result, *order.Ordering) {
	ord := order.FirstFit(g)
	return Color(g, ord, o.Procs), ord
}

// R runs JP with a uniformly random order (JP-R [26], [31]).
func R(g *graph.Graph, o Options) (*Result, *order.Ordering) {
	ord := order.Random(g, o.Seed)
	return Color(g, ord, o.Procs), ord
}

// LF runs JP with the largest-degree-first order.
func LF(g *graph.Graph, o Options) (*Result, *order.Ordering) {
	ord := order.LargestFirst(g, o.Seed)
	return Color(g, ord, o.Procs), ord
}

// LLF runs JP with the largest-log-degree-first order [31].
func LLF(g *graph.Graph, o Options) (*Result, *order.Ordering) {
	ord := order.LargestLogFirst(g, o.Seed)
	return Color(g, ord, o.Procs), ord
}

// SL runs JP with the exact smallest-degree-last (degeneracy) order [28];
// quality ≤ d+1 colors, but the ordering is sequential.
func SL(g *graph.Graph, o Options) (*Result, *order.Ordering) {
	ord := order.SmallestLast(g)
	return Color(g, ord, o.Procs), ord
}

// SLL runs JP with the smallest-log-degree-last order [31].
func SLL(g *graph.Graph, o Options) (*Result, *order.Ordering) {
	ord := order.SmallestLogLast(g, o.Seed, o.Procs)
	return Color(g, ord, o.Procs), ord
}

// ASL runs JP with the approximate smallest-last order of Patwary et
// al. [32] (JP-ASL; no quality bound beyond Δ+1).
func ASL(g *graph.Graph, o Options) (*Result, *order.Ordering) {
	ord := order.ApproxSmallestLast(g, o.Seed, o.Procs)
	return Color(g, ord, o.Procs), ord
}

// ADG runs JP-ADG (contribution #2): JP under the partial 2(1+ε)-
// approximate degeneracy order, guaranteeing ≤ ⌈2(1+ε)d⌉ + 1 colors
// (Corollary 1) in O(n+m) work.
func ADG(g *graph.Graph, o Options) (*Result, *order.Ordering) {
	ord := order.ADG(g, order.ADGOptions{
		Epsilon: o.Epsilon,
		Procs:   o.Procs,
		Seed:    o.Seed,
		Sorted:  o.Optimized,
		CREW:    o.CREW,
	})
	return Color(g, ord, o.Procs), ord
}

// ADGM runs JP-ADG-M (§V-D): the median-based 4-approximate ordering,
// guaranteeing ≤ 4d + 1 colors (Corollary 2).
func ADGM(g *graph.Graph, o Options) (*Result, *order.Ordering) {
	ord := order.ADG(g, order.ADGOptions{
		Median: true,
		Procs:  o.Procs,
		Seed:   o.Seed,
		Sorted: o.Optimized,
	})
	return Color(g, ord, o.Procs), ord
}

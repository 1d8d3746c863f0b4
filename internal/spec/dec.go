package spec

import (
	"context"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/xrand"
)

// DECADG is Algorithm 4 (contribution #3): decompose the graph into the
// low-degree partitions produced by ADG(ε/12) and color them from the
// densest (highest rank) down with SIM-COL(µ = ε/4), carrying forbidden-
// color bitmaps across partitions. Quality ≤ ⌈(1+ε/4)·2(1+ε/12)·d⌉ + 1
// ≤ (2+ε)d + 1 for ε ≤ 8 (Claim 2).
func DECADG(g *graph.Graph, opts Options) *Result {
	return decColor(g, opts, false, false)
}

// DECADGM is DEC-ADG-M (§V-I.3): the decomposition comes from the median
// variant ADG-M, loosening quality to (4+ε)d-style bounds.
func DECADGM(g *graph.Graph, opts Options) *Result {
	return decColor(g, opts, true, false)
}

// DECADGITR is DEC-ADG-ITR (contribution #4, §IV-C): the DEC decomposition
// with ITR's deterministic smallest-available color rule inside each
// partition; conflicts are resolved by random priority (winner keeps).
// Quality ≤ ⌈2(1+ε)d⌉ + 1.
func DECADGITR(g *graph.Graph, opts Options) *Result {
	return decColor(g, opts, false, true)
}

// DecomposeOrdering runs the ADG* phase of Algorithm 4 alone (ε/12, with
// partitions retained). Exposed so the harness can time reordering and
// coloring separately, as Fig. 1's stacked bars do.
func DecomposeOrdering(g *graph.Graph, opts Options, median bool) *order.Ordering {
	ord, _ := DecomposeOrderingContext(context.Background(), g, opts, median)
	return ord
}

// DecomposeOrderingContext is DecomposeOrdering with cooperative
// cancellation (checked once per ADG peeling iteration).
func DecomposeOrderingContext(ctx context.Context, g *graph.Graph, opts Options, median bool) (*order.Ordering, error) {
	return order.ADGContext(ctx, g, order.ADGOptions{
		Epsilon: opts.epsilon() / 12,
		Procs:   opts.procs(),
		Seed:    opts.Seed,
		Median:  median,
	})
}

// ColorDecomposition runs the coloring phase of Algorithm 4 (or the
// DEC-ADG-ITR variant) over a precomputed ADG decomposition.
func ColorDecomposition(g *graph.Graph, ord *order.Ordering, opts Options, itrRule bool) *Result {
	res, _ := ColorDecompositionContext(context.Background(), g, ord, opts, itrRule)
	return res
}

// ColorDecompositionContext is ColorDecomposition with cooperative
// cancellation, checked once per partition (there are O(log n) of them).
// On cancellation the partial coloring is discarded and ctx.Err()
// returned.
func ColorDecompositionContext(ctx context.Context, g *graph.Graph, ord *order.Ordering, opts Options, itrRule bool) (*Result, error) {
	return decColorWithOrdering(ctx, g, ord, opts, itrRule)
}

func decColor(g *graph.Graph, opts Options, median, itrRule bool) *Result {
	if g.NumVertices() == 0 {
		return &Result{Colors: []uint32{}}
	}
	ord := DecomposeOrdering(g, opts, median)
	res, _ := decColorWithOrdering(context.Background(), g, ord, opts, itrRule)
	return res
}

func decColorWithOrdering(ctx context.Context, g *graph.Graph, ord *order.Ordering, opts Options, itrRule bool) (*Result, error) {
	n := g.NumVertices()
	p := opts.procs()
	eps := opts.epsilon()
	res := &Result{Colors: make([]uint32, n)}
	if n == 0 {
		return res, nil
	}
	res.OrderIterations = ord.Iterations

	mu := eps / 4
	st := newSimColState(g, ord.Rank, mu, opts.Seed, p)

	var prio []uint32
	if itrRule {
		prio = xrand.New(opts.Seed+1).Perm(n, nil)
	}

	// Lines 12-19: color partitions from the last (densest) to the first.
	for l := len(ord.Partitions) - 1; l >= 0; l-- {
		if err := par.CtxErr(ctx); err != nil {
			return nil, err
		}
		part := ord.Partitions[l]
		// Lines 16-18: pull colors of already-colored higher partitions
		// into Bv, and gather the partition's own edges for SIM-COL.
		st.loadPartition(part, uint32(l))
		res.EdgesScanned += sumDegrees(g, part)
		rounds, conflicts, edges := st.simCol(part, itrRule, prio)
		res.Rounds += rounds
		res.Conflicts += conflicts
		res.EdgesScanned += edges
	}
	copy(res.Colors, st.colors)
	res.finish()
	return res, nil
}

func sumDegrees(g *graph.Graph, vs []uint32) int64 {
	var s int64
	for _, v := range vs {
		s += int64(g.Degree(v))
	}
	return s
}

// SIMCOL colors an arbitrary whole graph with Algorithm 5 alone (single
// partition, no decomposition): a ((1+µ)Δ)-style coloring used by tests
// and as a Luby-class baseline. µ must be > 0 for the O(log n) round
// guarantee; the implementation still terminates for µ = 0 thanks to the
// deg+1 minimum span.
func SIMCOL(g *graph.Graph, mu float64, opts Options) *Result {
	n := g.NumVertices()
	p := opts.procs()
	res := &Result{Colors: make([]uint32, n)}
	if n == 0 {
		return res
	}
	rank := make([]uint32, n) // single partition: rank 0 everywhere
	st := newSimColState(g, rank, mu, opts.Seed, p)
	part := make([]uint32, n)
	for i := range part {
		part[i] = uint32(i)
	}
	st.loadPartition(part, 0)
	rounds, conflicts, edges := st.simCol(part, false, nil)
	res.Rounds = rounds
	res.Conflicts = conflicts
	res.EdgesScanned = g.NumArcs() + edges
	copy(res.Colors, st.colors)
	res.finish()
	return res
}

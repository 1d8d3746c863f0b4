// Package parcolor is a parallel graph coloring library reproducing
// Besta et al., "High-Performance Parallel Graph Coloring with Strong
// Guarantees on Work, Depth, and Quality" (ACM/IEEE Supercomputing 2020).
//
// The library provides:
//
//   - ADG, the parallel 2(1+ε)-approximate degeneracy ordering
//     (Algorithm 1) with its median (ADG-M) and optimized (ADG-O)
//     variants — reusable beyond coloring (clique mining, densest
//     subgraph, …);
//   - the coloring algorithms with provable work/depth/quality built on
//     it: JP-ADG, JP-ADG-M, DEC-ADG and DEC-ADG-ITR;
//   - every practical baseline from the paper's evaluation: JP-FF/R/LF/
//     LLF/SL/SLL/ASL, ITR, ITRB, GM, Luby-MIS, Greedy-ID and Greedy-SD;
//   - deterministic graph generators, CSR graph I/O, coloring
//     verification, and the benchmark harness regenerating the paper's
//     tables and figures (see cmd/colorbench and EXPERIMENTS.md).
//
// # Quick start
//
//	g, _ := parcolor.Kronecker(16, 16, 1)
//	res, _ := parcolor.Color(g, parcolor.JPADG, parcolor.Options{Epsilon: 0.01})
//	fmt.Println(res.NumColors, "colors")
//
// All algorithms are Las Vegas: results are always proper colorings.
// The JP orderings (except ASL), the ADG family, DEC-ADG(-ITR), Luby-MIS
// and the sequential baselines are additionally deterministic: for fixed
// seeds their coloring is independent of the worker count and of
// scheduling. JP-ASL, ITR, ITRB and GM trade that guarantee for speed —
// their (still proper) colorings can vary across runs.
package parcolor

import (
	"context"
	"fmt"
	"io"

	"repro/internal/clique"
	"repro/internal/densest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/harness"
	"repro/internal/kcore"
	"repro/internal/order"
	"repro/internal/recolor"
	"repro/internal/verify"
)

// Graph is a simple undirected graph in CSR form (see internal/graph).
type Graph = graph.Graph

// Edge is an undirected edge.
type Edge = graph.Edge

// Result reports a coloring run: the colors, the distinct color count,
// the reorder/color phase times and the work/memory proxies.
type Result = harness.RunResult

// Options configures a coloring run.
type Options struct {
	// Procs is the number of parallel workers (<= 0: GOMAXPROCS).
	Procs int
	// Seed fixes all randomness; runs with equal seeds are reproducible.
	Seed uint64
	// Epsilon is the ADG accuracy/parallelism knob ε (default 0.01, the
	// paper's evaluation setting). Only the ADG-based algorithms use it.
	Epsilon float64
}

// Algorithm names accepted by Color. They match the paper's nomenclature.
const (
	JPFF      = "JP-FF"
	JPR       = "JP-R"
	JPLF      = "JP-LF"
	JPLLF     = "JP-LLF"
	JPSL      = "JP-SL"
	JPSLL     = "JP-SLL"
	JPASL     = "JP-ASL"
	JPADG     = "JP-ADG"
	JPADGM    = "JP-ADG-M"
	ITR       = "ITR"
	ITRB      = "ITRB"
	GM        = "GM"
	DECADG    = "DEC-ADG"
	DECADGITR = "DEC-ADG-ITR"
	// SPECADG is the deterministic speculate-and-repair engine: chunked
	// optimistic greedy over the ADG-O order, within-chunk conflict
	// detection, localized JP-over-ADG repair (internal/speculate).
	SPECADG  = "SPEC-ADG"
	LubyMIS  = "Luby-MIS"
	GreedyID = "Greedy-ID"
	GreedySD = "Greedy-SD"
)

// Algorithms lists every available algorithm name.
func Algorithms() []string { return harness.Names() }

// Color colors g with the named algorithm and verifies the result.
func Color(g *Graph, algorithm string, opt Options) (*Result, error) {
	return ColorContext(context.Background(), g, algorithm, opt)
}

// ColorContext is Color with cooperative cancellation: the JP frontier
// loop, the ADG peeling loop and the DEC partition loop check ctx once
// per parallel round, so cancelling (or timing out) a long run returns
// within one round with ctx's error instead of running to completion.
// This is what lets a serving layer (cmd/colord) enforce per-request
// deadlines without abandoning goroutines mid-flight.
func ColorContext(ctx context.Context, g *Graph, algorithm string, opt Options) (*Result, error) {
	a, err := harness.Lookup(algorithm)
	if err != nil {
		return nil, err
	}
	return harness.RunChecked(a, g, harness.Config{
		Procs:   opt.Procs,
		Seed:    opt.Seed,
		Epsilon: epsilon(opt.Epsilon),
		Ctx:     ctx,
	})
}

// epsilon is the ε a run with Options.Epsilon eps uses: 0 selects the
// paper's evaluation setting 0.01. ColorContext and QualityBound both
// call it, so a bound always describes the run it is compared with.
func epsilon(eps float64) float64 {
	if eps == 0 {
		return 0.01
	}
	return eps
}

// NewGraph builds a simple undirected graph over n vertices from an edge
// list (self-loops dropped, duplicates collapsed, adjacency symmetrized).
func NewGraph(n int, edges []Edge) (*Graph, error) {
	return graph.FromEdges(n, edges, 0)
}

// ReadEdgeList parses a whitespace edge list ("u v" per line, '#'/'%'
// comments) — the SNAP/KONECT format.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graphio.ReadEdgeList(r) }

// WriteEdgeList writes g as an edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graphio.WriteEdgeList(w, g) }

// Kronecker generates a scale-free Kronecker (RMAT) graph with 2^scale
// vertices and about edgeFactor·2^scale edges (§VI-F's generator).
func Kronecker(scale, edgeFactor int, seed uint64) (*Graph, error) {
	return gen.Kronecker(scale, edgeFactor, seed, 0)
}

// ErdosRenyi generates a uniform random graph with n vertices and about
// m edges.
func ErdosRenyi(n int, m int64, seed uint64) (*Graph, error) {
	return gen.ErdosRenyiGNM(n, m, seed, 0)
}

// BarabasiAlbert generates a preferential-attachment graph with
// degeneracy k (the d ≪ Δ regime of §IV-E).
func BarabasiAlbert(n, k int, seed uint64) (*Graph, error) {
	return gen.BarabasiAlbert(n, k, seed, 0)
}

// Grid2D generates the rows×cols lattice (planar, degeneracy 2).
func Grid2D(rows, cols int) (*Graph, error) { return gen.Grid2D(rows, cols, 0) }

// Community generates a planted-partition graph: k dense communities
// plus mOut random cross edges.
func Community(n, k int, pIn float64, mOut int64, seed uint64) (*Graph, error) {
	return gen.Community(n, k, pIn, mOut, seed, 0)
}

// Verify checks that colors is a proper coloring of g.
func Verify(g *Graph, colors []uint32) error { return verify.CheckProper(g, colors) }

// NumColors counts the distinct colors used.
func NumColors(colors []uint32) int { return verify.NumColors(colors) }

// Degeneracy computes the exact degeneracy d of g (O(n+m) peeling).
func Degeneracy(g *Graph) int { return kcore.Degeneracy(g) }

// Coreness computes the exact coreness of every vertex (§II-B).
func Coreness(g *Graph) []int32 { return kcore.Decompose(g).Coreness }

// DegeneracyOrdering holds an approximate degeneracy ordering produced by
// ADG — exposed separately because the ordering is of independent
// interest (maximal cliques, densest subgraph, …).
type DegeneracyOrdering struct {
	// Rank[v] is the partial order rank (removal round); vertices with
	// equal rank were removed in the same parallel round.
	Rank []uint32
	// Iterations is the number of parallel rounds (O(log n), Lemma 1).
	Iterations int
	// ApproxFactor is the proven approximation factor: each vertex has at
	// most ApproxFactor·d neighbors of equal or higher rank.
	ApproxFactor float64
}

// ApproxDegeneracyOrder computes the partial 2(1+ε)-approximate
// degeneracy ordering of g with ADG (Algorithm 1).
func ApproxDegeneracyOrder(g *Graph, eps float64, opt Options) *DegeneracyOrdering {
	if eps < 0 {
		eps = 0
	}
	o := order.ADG(g, order.ADGOptions{Epsilon: eps, Procs: opt.Procs, Seed: opt.Seed})
	return &DegeneracyOrdering{
		Rank:         o.Rank,
		Iterations:   o.Iterations,
		ApproxFactor: 2 * (1 + eps),
	}
}

// QualityBound returns the provable color-count guarantee of the named
// algorithm on g (Table III) for a run with Options.Epsilon eps: d+1
// for JP-SL, ⌈2(1+ε)d⌉+1 for JP-ADG, 4d+1 for JP-ADG-M, the DEC-ADG
// family's bounds and Δ+1 for everything else.
func QualityBound(g *Graph, algorithm string, eps float64) (int, error) {
	if _, err := harness.Lookup(algorithm); err != nil {
		return 0, err
	}
	return verify.QualityBound(algorithm, g, kcore.Degeneracy(g), epsilon(eps)), nil
}

// Stats summarizes a graph (n, m, degree extremes).
type Stats = graph.Stats

// ComputeStats summarizes g.
func ComputeStats(g *Graph) Stats { return graph.ComputeStats(g) }

// String formats a Result compactly.
func FormatResult(name string, r *Result) string {
	return fmt.Sprintf("%s: %d colors, reorder %.3fs + color %.3fs",
		name, r.NumColors, r.ReorderSeconds, r.ColorSeconds)
}

// ImproveColoring runs Culberson-style iterated greedy recoloring passes
// ([130]) over an existing proper coloring. The result never uses more
// colors than the input; class-order heuristics often save a few. The
// pass is orthogonal to the coloring algorithm, as §VII notes.
func ImproveColoring(g *Graph, colors []uint32, passes int, seed uint64) ([]uint32, int, error) {
	res, err := recolor.IteratedGreedy(g, colors, recolor.LargestFirstOrder, passes, seed)
	if err != nil {
		return nil, 0, err
	}
	return res.Colors, res.NumColors, nil
}

// DenseSubgraph holds an approximate densest-subgraph answer.
type DenseSubgraph struct {
	Vertices     []uint32
	Density      float64 // edges / vertices of the induced subgraph
	ApproxFactor float64 // optimum ≤ ApproxFactor · Density
	Rounds       int
}

// DensestSubgraph finds a 2(1+ε)-approximate densest subgraph by the
// ADG-style parallel batch peeling the paper points to in §VII.
func DensestSubgraph(g *Graph, eps float64, opt Options) *DenseSubgraph {
	res := densest.ADGPeel(g, eps, opt.Procs)
	return &DenseSubgraph{
		Vertices:     res.Vertices,
		Density:      res.Density,
		ApproxFactor: res.ApproxFactor,
		Rounds:       res.Rounds,
	}
}

// MaximalCliques enumerates every maximal clique using Bron–Kerbosch
// rooted in the ADG order — the clique-mining application of ADG the
// paper's conclusion proposes ([49], [50]). emit receives each clique
// with ascending vertex IDs.
func MaximalCliques(g *Graph, eps float64, opt Options, emit func(c []uint32)) {
	keys := clique.OrderADG(g, eps, opt.Seed, opt.Procs)
	clique.Enumerate(g, keys, opt.Procs, emit)
}

// Package graph implements the CSR graph representation described in §II-A:
// n sorted adjacency arrays (2m words) plus n+1 offsets. Graphs are simple
// and undirected — the builder removes self-loops, deduplicates parallel
// edges and symmetrizes directed input, matching the paper's preprocessing
// of SNAP/KONECT/WebGraph datasets.
package graph

import (
	"fmt"
	"slices"

	"repro/internal/par"
	"repro/internal/sortutil"
)

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V uint32
}

// Graph is an immutable simple undirected graph in CSR form.
// Vertices are identified by integer IDs 0..n-1 (the paper uses 1..n; the
// shift is immaterial). The zero value is the empty graph.
type Graph struct {
	offsets []int64  // len n+1; offsets[v]..offsets[v+1] indexes adj
	adj     []uint32 // concatenated sorted neighbor lists, len 2m
}

// NumVertices returns n.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns m, the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)) / 2 }

// NumArcs returns 2m, the number of directed arcs stored.
func (g *Graph) NumArcs() int64 { return int64(len(g.adj)) }

// Degree returns deg(v).
func (g *Graph) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list N(v) as a shared slice view;
// callers must not modify it.
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// AppendNeighbors appends N(v) to buf and returns it. It satisfies the
// same merged-adjacency contract dynamic.Overlay exposes, so code
// written against that shape (conflict detection, localized repair)
// runs over a plain CSR graph too.
func (g *Graph) AppendNeighbors(buf []uint32, v uint32) []uint32 {
	return append(buf, g.Neighbors(v)...)
}

// Offsets returns the CSR offset array (len n+1) as a shared read-only
// view; callers must not modify it. It doubles as the arc-count prefix
// used by par.ForBlocksWeighted for edge-balanced partitioning.
func (g *Graph) Offsets() []int64 {
	return g.offsets
}

// Adjacency returns the concatenated neighbor array (len 2m) as a
// shared read-only view; callers must not modify it. Together with
// Offsets it exposes the raw CSR for binary serialization
// (internal/store's snapshot codec).
func (g *Graph) Adjacency() []uint32 {
	return g.adj
}

// HasEdge reports whether {u, v} is an edge, by binary search in the
// smaller endpoint's neighbor list.
func (g *Graph) HasEdge(u, v uint32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, found := slices.BinarySearch(g.Neighbors(u), v)
	return found
}

// MaxDegree returns Δ, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	n := g.NumVertices()
	return int(par.MaxInt64(par.DefaultProcs(), n, 0, func(i int) int64 {
		return int64(g.Degree(uint32(i)))
	}))
}

// MinDegree returns δ, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return int(par.MinInt64(par.DefaultProcs(), n, 1<<62, func(i int) int64 {
		return int64(g.Degree(uint32(i)))
	}))
}

// AvgDegree returns δ̂ = 2m/n, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumArcs()) / float64(n)
}

// Degrees returns a freshly allocated slice of all vertex degrees.
func (g *Graph) Degrees() []int32 {
	n := g.NumVertices()
	d := make([]int32, n)
	par.For(par.DefaultProcs(), n, func(i int) {
		d[i] = int32(g.Degree(uint32(i)))
	})
	return d
}

// Validate checks CSR structural invariants: monotone offsets, sorted
// neighbor lists, no self-loops, no duplicate neighbors, in-range IDs, and
// symmetry (u ∈ N(v) ⇔ v ∈ N(u)). Intended for tests and input validation.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n == 0 {
		if len(g.adj) != 0 {
			return fmt.Errorf("graph: empty offsets but %d arcs", len(g.adj))
		}
		return nil
	}
	if g.offsets[0] != 0 || g.offsets[n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: offsets endpoints [%d, %d] do not match adj length %d",
			g.offsets[0], g.offsets[n], len(g.adj))
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		ns := g.Neighbors(uint32(v))
		for i, u := range ns {
			if int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if u == uint32(v) {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && ns[i-1] >= u {
				return fmt.Errorf("graph: neighbors of %d not strictly sorted", v)
			}
			if !g.HasEdge(u, uint32(v)) {
				return fmt.Errorf("graph: asymmetric edge %d->%d", v, u)
			}
		}
	}
	return nil
}

// Edges returns each undirected edge exactly once (with U < V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if uint32(v) < u {
				out = append(out, Edge{uint32(v), u})
			}
		}
	}
	return out
}

// FromEdges builds a simple undirected graph over n vertices from an edge
// list. Self-loops are dropped; duplicate and reversed duplicates collapse
// to a single undirected edge. Edges with endpoints >= n cause an error.
// Building runs in O(m) time (radix sort) with p workers.
func FromEdges(n int, edges []Edge, p int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, n)
		}
	}
	// Encode both arc directions as u<<32|v, drop self-loops.
	arcs := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		arcs = append(arcs, uint64(e.U)<<32|uint64(e.V))
		arcs = append(arcs, uint64(e.V)<<32|uint64(e.U))
	}
	sortutil.ParallelRadixSortUint64(p, arcs)
	// Dedup in place.
	w := 0
	for i, a := range arcs {
		if i == 0 || a != arcs[i-1] {
			arcs[w] = a
			w++
		}
	}
	arcs = arcs[:w]
	// Count degrees, prefix-sum into offsets, scatter.
	counts := make([]int32, n)
	for _, a := range arcs {
		counts[a>>32]++
	}
	offsets := make([]int64, n+1)
	par.PrefixSumInt32(p, counts, offsets)
	adj := make([]uint32, len(arcs))
	par.For(p, len(arcs), func(i int) {
		adj[i] = uint32(arcs[i]) // low 32 bits = target; arcs sorted by (src,dst)
	})
	return &Graph{offsets: offsets, adj: adj}, nil
}

// FromCSR adopts offsets and adj as a CSR graph without copying —
// the zero-copy constructor the mmap snapshot loader builds on, so a
// multi-GB adjacency can be served straight from the page cache. The
// slices must stay immutable and outlive the graph.
//
// The structural invariants the coloring code indexes by (monotone
// offsets bracketing adj, in-range neighbor ids, strictly sorted rows,
// no self-loops) are verified in one sequential pass so corrupt input
// can never produce a graph that panics downstream. Symmetry
// (u ∈ N(v) ⇔ v ∈ N(u)) is NOT re-checked here — it costs a binary
// search per arc; callers with untrusted input should run Validate.
func FromCSR(offsets []int64, adj []uint32) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("graph: FromCSR needs a non-empty offsets array")
	}
	n := len(offsets) - 1
	if offsets[0] != 0 || offsets[n] != int64(len(adj)) {
		return nil, fmt.Errorf("graph: offsets endpoints [%d, %d] do not match adj length %d",
			offsets[0], offsets[n], len(adj))
	}
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if lo > hi {
			return nil, fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		for i := lo; i < hi; i++ {
			u := adj[i]
			if int(u) >= n {
				return nil, fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if u == uint32(v) {
				return nil, fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > lo && adj[i-1] >= u {
				return nil, fmt.Errorf("graph: neighbors of %d not strictly sorted", v)
			}
		}
	}
	return &Graph{offsets: offsets, adj: adj}, nil
}

// FromAdjacency builds a graph directly from per-vertex neighbor lists,
// symmetrizing and cleaning them through FromEdges.
func FromAdjacency(lists [][]uint32, p int) (*Graph, error) {
	var edges []Edge
	for v, ns := range lists {
		for _, u := range ns {
			edges = append(edges, Edge{uint32(v), u})
		}
	}
	return FromEdges(len(lists), edges, p)
}

// InducedSubgraph returns the subgraph G[S] induced by the vertex set S,
// together with the mapping newID -> oldID. Vertices in S are renumbered
// 0..|S|-1 in the order given. Duplicate entries in S are an error.
func (g *Graph) InducedSubgraph(s []uint32, p int) (*Graph, []uint32, error) {
	n := g.NumVertices()
	newID := make([]int32, n)
	for i := range newID {
		newID[i] = -1
	}
	for i, v := range s {
		if int(v) >= n {
			return nil, nil, fmt.Errorf("graph: subgraph vertex %d out of range", v)
		}
		if newID[v] != -1 {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in subgraph set", v)
		}
		newID[v] = int32(i)
	}
	var edges []Edge
	for i, v := range s {
		for _, u := range g.Neighbors(v) {
			if j := newID[u]; j >= 0 && int32(i) < j {
				edges = append(edges, Edge{uint32(i), uint32(j)})
			}
		}
	}
	sub, err := FromEdges(len(s), edges, p)
	if err != nil {
		return nil, nil, err
	}
	old := append([]uint32(nil), s...)
	return sub, old, nil
}

// Stats is a structural summary of a graph (the columns of Table V plus
// degree extremes).
type Stats struct {
	N         int
	M         int64
	MaxDeg    int
	MinDeg    int
	AvgDeg    float64
	Isolated  int // vertices of degree 0
	TwoMOverN float64
}

// ComputeStats summarizes g.
func ComputeStats(g *Graph) Stats {
	n := g.NumVertices()
	iso := par.Count(par.DefaultProcs(), n, func(i int) bool {
		return g.Degree(uint32(i)) == 0
	})
	return Stats{
		N:         n,
		M:         g.NumEdges(),
		MaxDeg:    g.MaxDegree(),
		MinDeg:    g.MinDegree(),
		AvgDeg:    g.AvgDegree(),
		Isolated:  iso,
		TwoMOverN: g.AvgDegree(),
	}
}

// String implements fmt.Stringer with a one-line summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d, Δ=%d)", g.NumVertices(), g.NumEdges(), g.MaxDegree())
}

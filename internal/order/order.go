// Package order implements the vertex-ordering heuristics of Table II:
// the classical FF, R, LF, LLF, ID, SL, SLL and ASL orderings, and the
// paper's contribution — the parallel approximate degeneracy orderings
// ADG (Algorithm 1), ADG-M (§V-D) and ADG-O (Algorithm 6).
//
// An Ordering assigns every vertex a 64-bit priority key
//
//	key[v] = rank[v] << 32 | tie[v]
//
// where rank is the heuristic's primary value (degree, removal round, …)
// and tie is a random permutation of 0..n-1 (the paper's ρ = ⟨ρ_X, ρ_R⟩
// with random tie-breaking, §IV-A). Keys are therefore a collision-free
// total order and the Jones–Plassmann DAG they induce is acyclic.
// JP colors vertices with larger keys first.
package order

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sortutil"
	"repro/internal/xrand"
)

// Ordering is a total priority order on the vertices of a graph.
type Ordering struct {
	// Name identifies the heuristic (for reporting).
	Name string
	// Keys holds the composite priority; higher key = colored earlier.
	Keys []uint64
	// Rank is the primary (coarse) component of Keys. Vertices sharing a
	// rank form one batch of the partial order (ADG's R(i) sets).
	Rank []uint32
	// Partitions, when non-nil, lists the vertices of each rank class in
	// increasing rank order (ADG's low-degree partitions, used by DEC-ADG).
	Partitions [][]uint32
	// Iterations is the number of parallel rounds the heuristic performed
	// (the depth proxy reported in Table II).
	Iterations int
	// PredCount, when non-nil, is the fused JP in-degree: the number of
	// neighbors with a strictly higher key (ADG-O's rank array, §V-C).
	PredCount []int32
}

// NewFromRanks builds a total order from per-vertex ranks with random
// tie-breaking seeded by seed. It runs sequentially: drawing the
// permutation already does, so a fork would save little, and a caller
// that asked for one worker gets one.
func NewFromRanks(name string, ranks []uint32, seed uint64) *Ordering {
	perm := xrand.New(seed).Perm(len(ranks), nil)
	keys := make([]uint64, len(ranks))
	for v, r := range ranks {
		keys[v] = uint64(r)<<32 | uint64(perm[v])
	}
	return &Ordering{Name: name, Keys: keys, Rank: ranks}
}

// Validate checks structural invariants: matching lengths, key uniqueness
// (total order), Keys consistent with Rank, and Partitions consistent with
// Rank when present.
func (o *Ordering) Validate(g *graph.Graph) error {
	n := g.NumVertices()
	if len(o.Keys) != n || len(o.Rank) != n {
		return fmt.Errorf("order %s: lengths keys=%d rank=%d, n=%d", o.Name, len(o.Keys), len(o.Rank), n)
	}
	seen := make(map[uint64]bool, n)
	for v := 0; v < n; v++ {
		if uint32(o.Keys[v]>>32) != o.Rank[v] {
			return fmt.Errorf("order %s: key/rank mismatch at %d", o.Name, v)
		}
		if seen[o.Keys[v]] {
			return fmt.Errorf("order %s: duplicate key at %d", o.Name, v)
		}
		seen[o.Keys[v]] = true
	}
	if o.Partitions != nil {
		total := 0
		for i, part := range o.Partitions {
			for _, v := range part {
				if int(v) >= n {
					return fmt.Errorf("order %s: partition %d has bad vertex %d", o.Name, i, v)
				}
				if int(o.Rank[v]) != i {
					return fmt.Errorf("order %s: vertex %d in partition %d has rank %d", o.Name, v, i, o.Rank[v])
				}
			}
			total += len(part)
		}
		if total != n {
			return fmt.Errorf("order %s: partitions cover %d of %d vertices", o.Name, total, n)
		}
	}
	return nil
}

// MaxEqualOrHigherRankNeighbors returns max over v of |{u ∈ N(v):
// rank[u] >= rank[v]}| — the quantity bounded by k·d for a partial
// k-approximate degeneracy ordering (§II-B). Dividing by the exact
// degeneracy gives the measured approximation factor.
func MaxEqualOrHigherRankNeighbors(g *graph.Graph, rank []uint32) int {
	n := g.NumVertices()
	return int(par.MaxInt64(par.DefaultProcs(), n, 0, func(v int) int64 {
		c := int64(0)
		rv := rank[v]
		for _, u := range g.Neighbors(uint32(v)) {
			if rank[u] >= rv {
				c++
			}
		}
		return c
	}))
}

// MaxPredecessors returns the maximum JP DAG in-degree under Keys:
// max over v of |{u ∈ N(v): key[u] > key[v]}|. By Lemma 6 the JP coloring
// uses at most MaxPredecessors+1 colors.
func MaxPredecessors(g *graph.Graph, keys []uint64) int {
	n := g.NumVertices()
	return int(par.MaxInt64(par.DefaultProcs(), n, 0, func(v int) int64 {
		c := int64(0)
		kv := keys[v]
		for _, u := range g.Neighbors(uint32(v)) {
			if keys[u] > kv {
				c++
			}
		}
		return c
	}))
}

// PredCounts computes the JP DAG in-degree of every vertex under Keys.
// Blocks are edge-balanced over the CSR offsets: the cost of a vertex is
// its adjacency scan, not a constant.
func PredCounts(g *graph.Graph, keys []uint64, p int) []int32 {
	n := g.NumVertices()
	counts := make([]int32, n)
	par.ForBlocksWeighted(p, g.Offsets(), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			c := int32(0)
			kv := keys[v]
			for _, u := range g.Neighbors(uint32(v)) {
				if keys[u] > kv {
					c++
				}
			}
			counts[v] = c
		}
	})
	return counts
}

// LongestPath returns the length (in vertices) of the longest directed path
// in the DAG induced by Keys — the |P| of Lemma 7 that governs JP's depth.
// Computed by DP over vertices in decreasing key order; O(n log n + m).
func LongestPath(g *graph.Graph, keys []uint64) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	depth := make([]int32, n)
	best := int32(0)
	for _, v := range ByKeyDesc(keys) {
		d := int32(1)
		kv := keys[v]
		for _, u := range g.Neighbors(v) {
			if keys[u] > kv && depth[u]+1 > d {
				d = depth[u] + 1
			}
		}
		depth[v] = d
		if d > best {
			best = d
		}
	}
	return int(best)
}

// ByKeyDesc returns the vertices sorted by decreasing key. It runs
// sequentially, so the Greedy schemes that color in this order, the
// Table III class-2 yardsticks, never borrow the par pool and their
// runtimes do not vary with GOMAXPROCS.
func ByKeyDesc(keys []uint64) []uint32 {
	idx := make([]uint32, len(keys))
	inv := make([]uint64, len(keys))
	for v, k := range keys {
		idx[v] = uint32(v)
		inv[v] = ^k // ascending inverted = descending key
	}
	sortutil.RadixSortPairs(inv, idx)
	return idx
}

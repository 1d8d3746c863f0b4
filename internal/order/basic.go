package order

import (
	"container/heap"
	"math/bits"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/par"
)

// FirstFit returns the FF ordering [25]: the natural vertex order
// (vertex 0 is colored first, so it gets the highest rank).
func FirstFit(g *graph.Graph) *Ordering {
	n := g.NumVertices()
	ranks := make([]uint32, n)
	keys := make([]uint64, n)
	for v := 0; v < n; v++ {
		ranks[v] = uint32(n - v)
		keys[v] = uint64(ranks[v]) << 32
	}
	return &Ordering{Name: "FF", Keys: keys, Rank: ranks, Iterations: 1}
}

// Random returns the R ordering [26]: a uniformly random permutation.
func Random(g *graph.Graph, seed uint64) *Ordering {
	n := g.NumVertices()
	o := NewFromRanks("R", make([]uint32, n), seed)
	o.Iterations = 1
	return o
}

// LargestFirst returns the LF ordering [31]: rank = degree, random ties.
// Like LLF it runs sequentially, as NewFromRanks does.
func LargestFirst(g *graph.Graph, seed uint64) *Ordering {
	ranks := make([]uint32, g.NumVertices())
	for v := range ranks {
		ranks[v] = uint32(g.Degree(uint32(v)))
	}
	o := NewFromRanks("LF", ranks, seed)
	o.Iterations = 1
	return o
}

// LargestLogFirst returns the LLF ordering [31]: rank = ⌈log₂(deg)⌉,
// random ties. Coarsening degrees to log classes bounds the number of
// distinct priority levels by O(log Δ), which is what improves JP-LF's
// worst-case depth.
func LargestLogFirst(g *graph.Graph, seed uint64) *Ordering {
	ranks := make([]uint32, g.NumVertices())
	for v := range ranks {
		ranks[v] = uint32(bits.Len(uint(g.Degree(uint32(v)))))
	}
	o := NewFromRanks("LLF", ranks, seed)
	o.Iterations = 1
	return o
}

// SmallestLast returns the SL ordering [28]: the exact degeneracy ordering
// from min-degree peeling. Rank = removal position, so later-removed
// vertices (the dense core) are colored first and every vertex has at most
// d higher-ranked neighbors; with JP this gives a (d+1)-coloring. The
// peeling is inherently sequential (depth Ω(n)), which is exactly the
// bottleneck ADG relaxes.
func SmallestLast(g *graph.Graph) *Ordering {
	n := g.NumVertices()
	dec := kcore.Decompose(g)
	ranks := make([]uint32, n)
	keys := make([]uint64, n)
	for v := 0; v < n; v++ {
		ranks[v] = uint32(dec.Pos[v])
		keys[v] = uint64(ranks[v]) << 32
	}
	return &Ordering{Name: "SL", Keys: keys, Rank: ranks, Iterations: n}
}

// SmallestLogLast returns the SLL ordering [31]: batched SL over log-degree
// classes. With threshold 2^i, every vertex of residual degree ≤ 2^i is
// removed in one parallel round; when no vertex qualifies the threshold
// doubles. O(log Δ · log n) rounds.
func SmallestLogLast(g *graph.Graph, seed uint64, p int) *Ordering {
	n := g.NumVertices()
	deg := g.Degrees()
	removed := make([]bool, n)
	ranks := make([]uint32, n)
	active := make([]uint32, n)
	for i := range active {
		active[i] = uint32(i)
	}
	threshold := int32(1)
	iter := 0
	rank := uint32(0)
	for len(active) > 0 {
		iter++
		th := threshold
		batch := par.Pack(p, len(active), func(i int) bool {
			return deg[active[i]] <= th
		})
		if len(batch) == 0 {
			threshold *= 2
			continue
		}
		// Mark and rank the batch.
		for _, bi := range batch {
			v := active[bi]
			removed[v] = true
			ranks[v] = rank
		}
		rank++
		// Push-style degree update with atomics (CRCW), edge-balanced
		// over the removed batch's degrees.
		par.ForWeightedBy(p, len(batch), func(i int) int64 {
			return int64(g.Degree(active[batch[i]]))
		}, func(i int) {
			v := active[batch[i]]
			for _, u := range g.Neighbors(v) {
				if !removed[u] {
					par.DecrementAndFetch(&deg[u])
				}
			}
		})
		keep := par.Pack(p, len(active), func(i int) bool {
			return !removed[active[i]]
		})
		next := make([]uint32, len(keep))
		par.For(p, len(keep), func(i int) { next[i] = active[keep[i]] })
		active = next
	}
	o := NewFromRanks("SLL", ranks, seed)
	o.Iterations = iter
	return o
}

// IncidenceDegree returns the ID ordering [1]: repeatedly select the vertex
// with the largest number of already-selected neighbors (incidence degree),
// breaking ties by larger static degree. The first colored vertex has the
// highest rank. Sequential by nature; O(n + m) with bucketed priorities.
func IncidenceDegree(g *graph.Graph) *Ordering {
	n := g.NumVertices()
	ranks := make([]uint32, n)
	keys := make([]uint64, n)
	if n == 0 {
		return &Ordering{Name: "ID", Keys: keys, Rank: ranks, Iterations: 0}
	}
	incid := make([]int32, n) // number of already-ordered neighbors
	picked := make([]bool, n)
	// Buckets over incidence degree; lazy deletion.
	buckets := make([][]uint32, g.MaxDegree()+1)
	for v := 0; v < n; v++ {
		buckets[0] = append(buckets[0], uint32(v))
	}
	cur := 0
	for seq := 0; seq < n; seq++ {
		// Find the highest non-empty bucket with a live entry.
		var v int = -1
		for cur >= 0 {
			b := buckets[cur]
			for len(b) > 0 {
				cand := b[len(b)-1]
				b = b[:len(b)-1]
				if !picked[cand] && int(incid[cand]) == cur {
					v = int(cand)
					break
				}
			}
			buckets[cur] = b
			if v >= 0 {
				break
			}
			cur--
		}
		if v < 0 {
			// All buckets exhausted under cur: rebuild by scanning (rare).
			for u := 0; u < n; u++ {
				if !picked[u] {
					v = u
					break
				}
			}
		}
		picked[v] = true
		ranks[v] = uint32(n - seq)
		keys[v] = uint64(ranks[v])<<32 | uint64(v)
		for _, u := range g.Neighbors(uint32(v)) {
			if !picked[u] {
				incid[u]++
				buckets[incid[u]] = append(buckets[incid[u]], u)
				if int(incid[u]) > cur {
					cur = int(incid[u])
				}
			}
		}
	}
	return &Ordering{Name: "ID", Keys: keys, Rank: ranks, Iterations: n}
}

// aslItem is a lazily keyed heap entry for ASL.
type aslItem struct {
	deg int32
	v   uint32
}

type aslHeap []aslItem

func (h aslHeap) Len() int            { return len(h) }
func (h aslHeap) Less(i, j int) bool  { return h[i].deg < h[j].deg }
func (h aslHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *aslHeap) Push(x interface{}) { *h = append(*h, x.(aslItem)) }
func (h *aslHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// ApproxSmallestLast returns the ASL ordering of Patwary et al. [32]:
// the vertex set is split into p chunks and each worker peels its chunk in
// local smallest-degree-first order while degrees are updated globally
// with atomics. The interleaving approximates SL without any guaranteed
// approximation factor (Table II lists ASL with no bounds).
func ApproxSmallestLast(g *graph.Graph, seed uint64, p int) *Ordering {
	n := g.NumVertices()
	if p <= 0 {
		p = par.DefaultProcs()
	}
	deg := g.Degrees()
	ranks := make([]uint32, n)
	var counter int64 = -1
	par.ForWorkers(p, n, func(w, lo, hi int) {
		h := make(aslHeap, 0, hi-lo)
		for v := lo; v < hi; v++ {
			h = append(h, aslItem{deg: atomic.LoadInt32(&deg[v]), v: uint32(v)})
		}
		heap.Init(&h)
		done := make([]bool, hi-lo)
		for h.Len() > 0 {
			it := heap.Pop(&h).(aslItem)
			if done[it.v-uint32(lo)] {
				continue
			}
			d := atomic.LoadInt32(&deg[it.v])
			if d < it.deg {
				// Stale: degree dropped; reinsert with the fresh value.
				heap.Push(&h, aslItem{deg: d, v: it.v})
				continue
			}
			done[it.v-uint32(lo)] = true
			ts := atomic.AddInt64(&counter, 1)
			ranks[it.v] = uint32(ts)
			for _, u := range g.Neighbors(it.v) {
				nd := atomic.AddInt32(&deg[u], -1)
				// Lazy decrease-key: reinsert chunk-local neighbors with
				// their fresh degree. Cross-chunk neighbors stay stale in
				// their owner's heap — that staleness is exactly ASL's
				// approximation (no bound, Table II).
				if int(u) >= lo && int(u) < hi && !done[int(u)-lo] {
					heap.Push(&h, aslItem{deg: nd, v: u})
				}
			}
		}
	})
	o := NewFromRanks("ASL", ranks, seed)
	o.Iterations = (n + p - 1) / maxInt(p, 1)
	return o
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

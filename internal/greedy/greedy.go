// Package greedy implements the sequential Greedy coloring scheme [25]
// and the two dynamic-order baselines of Table III class 2 — Greedy-ID
// (incidence degree [1]) and Greedy-SD (saturation degree / DSATUR [27]).
// These are the quality yardsticks the paper compares against: they are
// unparallelizable but produce excellent colorings.
package greedy

import (
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/verify"
)

// Result reports a sequential coloring.
type Result struct {
	Colors    []uint32
	NumColors int
}

// Color greedily colors vertices in decreasing priority order of ord:
// each vertex takes the smallest color unused by already-colored
// neighbors. With the same ordering, Greedy and JP produce the same
// coloring (JP is its parallelization).
func Color(g *graph.Graph, ord *order.Ordering) *Result {
	n := g.NumVertices()
	seq := sortByKeyDesc(ord.Keys)
	return colorSequence(g, seq, n)
}

// colorSequence colors vertices in the order given by seq.
func colorSequence(g *graph.Graph, seq []uint32, n int) *Result {
	colors := make([]uint32, n)
	maxDeg := g.MaxDegree()
	forbidden := make([]uint64, maxDeg+2)
	var epoch uint64
	for _, v := range seq {
		epoch++
		deg := g.Degree(v)
		for _, u := range g.Neighbors(v) {
			if c := colors[u]; c != 0 && int(c) <= deg+1 {
				forbidden[c] = epoch
			}
		}
		c := uint32(1)
		for forbidden[c] == epoch {
			c++
		}
		colors[v] = c
	}
	return &Result{Colors: colors, NumColors: verify.NumColors(colors)}
}

// ID is Greedy-ID [1]: vertices are colored in incidence-degree order
// (most already-colored neighbors first).
func ID(g *graph.Graph) *Result {
	return Color(g, order.IncidenceDegree(g))
}

// SD is Greedy-SD (DSATUR) [27]: at each step color the vertex whose
// neighbors currently use the most distinct colors (the saturation
// degree), breaking ties by residual degree. O((n+m) log n)-ish with a
// lazy max-heap; the order is inherently sequential.
func SD(g *graph.Graph) *Result {
	n := g.NumVertices()
	colors := make([]uint32, n)
	if n == 0 {
		return &Result{Colors: colors}
	}
	maxDeg := g.MaxDegree()
	// satColors[v] tracks the distinct neighbor colors of v as a bitmap
	// over colors 1..deg(v)+1 (higher colors cannot affect v's choice).
	satSize := make([]int32, n) // saturation degree
	satBits := make([][]uint64, n)
	for v := 0; v < n; v++ {
		words := (g.Degree(uint32(v)) + 2 + 63) / 64
		satBits[v] = make([]uint64, words)
	}
	// Bucket queue over saturation degree with lazy entries.
	buckets := make([][]uint32, maxDeg+2)
	for v := 0; v < n; v++ {
		buckets[0] = append(buckets[0], uint32(v))
	}
	cur := 0
	forbidden := make([]uint64, maxDeg+2)
	var epoch uint64
	for colored := 0; colored < n; colored++ {
		// Pop the live vertex with maximum saturation (ties: any).
		v := -1
		for cur >= 0 {
			b := buckets[cur]
			for len(b) > 0 {
				cand := b[len(b)-1]
				b = b[:len(b)-1]
				if colors[cand] == 0 && int(satSize[cand]) == cur {
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
			for u := 0; u < n; u++ {
				if colors[u] == 0 {
					v = u
					break
				}
			}
		}
		// Color v with the smallest free color.
		epoch++
		deg := g.Degree(uint32(v))
		for _, u := range g.Neighbors(uint32(v)) {
			if c := colors[u]; c != 0 && int(c) <= deg+1 {
				forbidden[c] = epoch
			}
		}
		c := uint32(1)
		for forbidden[c] == epoch {
			c++
		}
		colors[v] = c
		// Update neighbor saturations.
		for _, u := range g.Neighbors(uint32(v)) {
			if colors[u] != 0 {
				continue
			}
			limit := g.Degree(u) + 1
			if int(c) > limit {
				continue // cannot influence u's color choice
			}
			w, bit := c/64, c%64
			if satBits[u][w]&(1<<bit) == 0 {
				satBits[u][w] |= 1 << bit
				satSize[u]++
				buckets[satSize[u]] = append(buckets[satSize[u]], u)
				if int(satSize[u]) > cur {
					cur = int(satSize[u])
				}
			}
		}
	}
	return &Result{Colors: colors, NumColors: verify.NumColors(colors)}
}

// FF, LF, SL, R are the static-order Greedy baselines.

// FF is Greedy in natural vertex order.
func FF(g *graph.Graph) *Result { return Color(g, order.FirstFit(g)) }

// LF is Greedy in largest-degree-first order.
func LF(g *graph.Graph, seed uint64) *Result { return Color(g, order.LargestFirst(g, seed)) }

// SL is Greedy in smallest-degree-last (degeneracy) order; ≤ d+1 colors.
func SL(g *graph.Graph) *Result { return Color(g, order.SmallestLast(g)) }

// R is Greedy in uniformly random order.
func R(g *graph.Graph, seed uint64) *Result { return Color(g, order.Random(g, seed)) }

// sortByKeyDesc returns vertex IDs sorted by decreasing key. Kept fully
// sequential on purpose: the Greedy schemes are the Table III class-2
// sequential yardsticks, and their reported runtimes must not vary with
// GOMAXPROCS or borrow workers from the shared par pool.
func sortByKeyDesc(keys []uint64) []uint32 {
	n := len(keys)
	idx := make([]uint32, n)
	inv := make([]uint64, n)
	for v := 0; v < n; v++ {
		idx[v] = uint32(v)
		inv[v] = ^keys[v]
	}
	// LSD radix over inverted keys (ascending inverted = descending key).
	kbuf := make([]uint64, n)
	vbuf := make([]uint32, n)
	ksrc, kdst := inv, kbuf
	vsrc, vdst := idx, vbuf
	for shift := uint(0); shift < 64; shift += 8 {
		var counts [257]int
		lo, hi := uint64(255), uint64(0)
		for _, k := range ksrc {
			b := (k >> shift) & 255
			counts[b+1]++
			if b < lo {
				lo = b
			}
			if b > hi {
				hi = b
			}
		}
		if lo == hi {
			continue
		}
		for i := 1; i < 257; i++ {
			counts[i] += counts[i-1]
		}
		for i, k := range ksrc {
			b := (k >> shift) & 255
			kdst[counts[b]] = k
			vdst[counts[b]] = vsrc[i]
			counts[b]++
		}
		ksrc, kdst = kdst, ksrc
		vsrc, vdst = vdst, vsrc
	}
	if n > 0 && &vsrc[0] != &idx[0] {
		copy(idx, vsrc)
	}
	return idx
}

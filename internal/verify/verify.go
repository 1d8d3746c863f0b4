// Package verify checks coloring correctness and quality: the proper-
// coloring predicate, color counting and histograms, and the quality
// bounds of Table III expressed as runtime assertions. Every coloring
// algorithm's tests and the benchmark harness funnel through this package,
// so a buggy algorithm cannot silently report good numbers.
package verify

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
)

// CheckProper verifies that colors is a proper vertex coloring of g:
// every vertex has a color >= 1 and no edge is monochromatic.
// It returns a descriptive error naming the first violation found.
func CheckProper(g *graph.Graph, colors []uint32) error {
	n := g.NumVertices()
	if len(colors) != n {
		return fmt.Errorf("verify: %d colors for %d vertices", len(colors), n)
	}
	for v := 0; v < n; v++ {
		if colors[v] == 0 {
			return fmt.Errorf("verify: vertex %d is uncolored", v)
		}
		for _, u := range g.Neighbors(uint32(v)) {
			if colors[u] == colors[v] {
				return fmt.Errorf("verify: edge (%d,%d) is monochromatic with color %d", v, u, colors[v])
			}
		}
	}
	return nil
}

// IsProper is CheckProper as a parallel predicate (no error detail).
func IsProper(g *graph.Graph, colors []uint32, p int) bool {
	n := g.NumVertices()
	if len(colors) != n {
		return false
	}
	bad := par.Count(p, n, func(v int) bool {
		if colors[v] == 0 {
			return true
		}
		for _, u := range g.Neighbors(uint32(v)) {
			if colors[u] == colors[v] {
				return true
			}
		}
		return false
	})
	return bad == 0
}

// NumColors returns the number of distinct colors used; 0 (uncolored) is
// not counted and gaps are allowed. It allocates O(len(colors)) bits
// whatever the color values: colors 1..len(colors) — every color the
// algorithms here hand out — are counted in a dense bitmap, and only
// larger values, which can arrive from outside (an adopted coloring),
// fall back to a map.
func NumColors(colors []uint32) int {
	n := uint64(len(colors))
	seen := make([]uint64, n/64+1)
	var big map[uint32]struct{}
	cnt := 0
	for _, c := range colors {
		switch {
		case c == 0:
		case uint64(c) <= n:
			if w, bit := c>>6, uint64(1)<<(c&63); seen[w]&bit == 0 {
				seen[w] |= bit
				cnt++
			}
		default:
			if big == nil {
				big = map[uint32]struct{}{}
			}
			if _, ok := big[c]; !ok {
				big[c] = struct{}{}
				cnt++
			}
		}
	}
	return cnt
}

// MaxColor returns the largest color value used (0 for an empty coloring).
// The paper reports color counts; for the smallest-available-color schemes
// here MaxColor equals NumColors unless an algorithm leaves gaps.
func MaxColor(colors []uint32) int {
	m := uint32(0)
	for _, c := range colors {
		if c > m {
			m = c
		}
	}
	return int(m)
}

// Histogram returns counts[c] = number of vertices with color c, for
// c in 1..MaxColor. Index 0 counts uncolored vertices.
func Histogram(colors []uint32) []int {
	h := make([]int, MaxColor(colors)+1)
	for _, c := range colors {
		h[c]++
	}
	return h
}

// CountConflicts returns the number of monochromatic edges (each counted
// once). Used by speculative-coloring tests to measure conflict decay.
func CountConflicts(g *graph.Graph, colors []uint32, p int) int64 {
	n := g.NumVertices()
	return par.ReduceInt64(p, n, func(v int) int64 {
		var c int64
		cv := colors[v]
		if cv == 0 {
			return 0
		}
		for _, u := range g.Neighbors(uint32(v)) {
			if uint32(v) < u && colors[u] == cv {
				c++
			}
		}
		return c
	})
}

// AssertBound returns an error if used > bound; algorithms with provable
// quality guarantees (Table III) call this in tests with their bound.
func AssertBound(name string, used, bound int) error {
	if used > bound {
		return fmt.Errorf("verify: %s used %d colors, exceeding its guarantee of %d", name, used, bound)
	}
	return nil
}

// GreedyBound is the trivial Δ+1 guarantee shared by every Greedy/JP
// scheme (Table III).
func GreedyBound(g *graph.Graph) int { return g.MaxDegree() + 1 }

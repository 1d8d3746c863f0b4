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

// degeneracyBounds is Table III's degeneracy-based guarantees: the color
// bound of each scheme that has one, given the degeneracy d and the ε
// its run uses. ADG clamps ε < 0 to 0. The -O names are the JP-ADG
// variants under the sorted ADG-O orderings, whose bounds are the same.
var degeneracyBounds = map[string]func(d int, eps float64) int{
	// An exact degeneracy order.
	"JP-SL": func(d int, _ float64) int { return d + 1 },
	// Corollary 1.
	"JP-ADG":   func(d int, eps float64) int { return ceilMul(2*(1+max(eps, 0)), d) + 1 },
	"JP-ADG-O": func(d int, eps float64) int { return ceilMul(2*(1+max(eps, 0)), d) + 1 },
	// Corollary 2.
	"JP-ADG-M":   func(d int, _ float64) int { return 4*d + 1 },
	"JP-ADG-M-O": func(d int, _ float64) int { return 4*d + 1 },
	// Claim 2: ⌈(1+ε/4)·2(1+ε/12)·d⌉+1, at most (2+ε)d+1 for ε ≤ 8.
	"DEC-ADG": func(d int, eps float64) int {
		eps = decEpsilon(eps)
		return ceilMul((1+eps/4)*2*(1+eps/12), d) + 1
	},
	// The median decomposition doubles the partition degree bound: 4d
	// instead of 2(1+ε/12)d.
	"DEC-ADG-M": func(d int, eps float64) int {
		eps = decEpsilon(eps)
		return ceilMul((1+eps/4)*4, d) + 1
	},
	// §IV-C: the smallest-available rule keeps colors within
	// deg_ℓ(v)+1 ≤ ⌈2(1+ε/12)d⌉+1.
	"DEC-ADG-ITR": func(d int, eps float64) int {
		return ceilMul(2*(1+decEpsilon(eps)/12), d) + 1
	},
}

// QualityBound returns the color-count guarantee of the named algorithm
// (Table III) for a run with ε eps on g, whose degeneracy is d: the
// degeneracy-based bound where the scheme has one, the trivial Δ+1
// otherwise. ε is normalized the way the run normalizes it.
func QualityBound(name string, g *graph.Graph, d int, eps float64) int {
	if b, ok := degeneracyBounds[name]; ok {
		return b(d, eps)
	}
	return GreedyBound(g)
}

// decEpsilon is the ε a DEC-ADG run uses: values ≤ 0 select 0.5.
func decEpsilon(eps float64) float64 {
	if eps <= 0 {
		return 0.5
	}
	return eps
}

// ceilMul returns ⌈f·d⌉.
func ceilMul(f float64, d int) int {
	v := f * float64(d)
	i := int(v)
	if float64(i) < v {
		i++
	}
	return i
}

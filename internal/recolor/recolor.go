// Package recolor implements quality-improvement passes over an existing
// proper coloring — the "recoloring" line of work the paper surveys
// ([130] Culberson's iterated greedy, [131]). These passes are orthogonal
// to the coloring algorithm: the paper positions them as optimizations
// one can stack on top of JP-ADG without affecting its guarantees, since
// re-greedy over color classes never increases the color count.
package recolor

import (
	"context"
	"sort"

	"repro/internal/graph"
	"repro/internal/mex"
	"repro/internal/par"
	"repro/internal/verify"
	"repro/internal/xrand"
)

// Strategy selects the class order for one iterated-greedy pass.
type Strategy int

const (
	// ReverseOrder feeds the classes in reverse color order — Culberson's
	// classic choice, guaranteed not to increase the count.
	ReverseOrder Strategy = iota
	// LargestFirstOrder feeds the biggest classes first.
	LargestFirstOrder
	// RandomOrder shuffles the classes.
	RandomOrder
)

// Result reports an improvement run.
type Result struct {
	Colors    []uint32
	NumColors int
	// Passes actually performed (may stop early at a fixed point).
	Passes int
}

// IteratedGreedy runs up to maxPasses of Culberson's iterated greedy:
// vertices are re-colored greedily class by class, which preserves
// properness and never increases the number of colors; class-order
// heuristics often decrease it. The input coloring must be proper.
func IteratedGreedy(g *graph.Graph, colors []uint32, strategy Strategy, maxPasses int, seed uint64) (*Result, error) {
	return IteratedGreedyContext(context.Background(), g, colors, strategy, maxPasses, seed)
}

// IteratedGreedyContext is IteratedGreedy with cooperative cancellation:
// ctx is checked once per pass (the same per-round convention as
// jp.ColorContext), so a cancelled long-running improvement run returns
// within one pass instead of burning the full budget. On cancellation
// the partial result is discarded and ctx.Err() is returned.
func IteratedGreedyContext(ctx context.Context, g *graph.Graph, colors []uint32, strategy Strategy, maxPasses int, seed uint64) (*Result, error) {
	if err := verify.CheckProper(g, colors); err != nil {
		return nil, err
	}
	cur := append([]uint32(nil), colors...)
	res := &Result{}
	rng := xrand.New(seed)
	for pass := 0; pass < maxPasses; pass++ {
		if err := par.CtxErr(ctx); err != nil {
			return nil, err
		}
		before := verify.NumColors(cur)
		next := regreedy(g, cur, strategy, rng)
		after := verify.NumColors(next)
		if after > before {
			// Cannot happen for class-respecting orders; keep the old
			// coloring defensively and stop.
			break
		}
		cur = next
		res.Passes++
		if after == before && strategy != RandomOrder {
			break // deterministic fixed point
		}
	}
	res.Colors = cur
	res.NumColors = verify.NumColors(cur)
	return res, nil
}

// regreedy performs one pass: classes are ordered by the strategy, then
// all vertices are greedily recolored class by class. Because each class
// is an independent set processed together, a vertex can only receive a
// color ≤ its class position, so the count never grows.
func regreedy(g *graph.Graph, colors []uint32, strategy Strategy, rng *xrand.RNG) []uint32 {
	maxC := verify.MaxColor(colors)
	classes := make([][]uint32, maxC+1)
	for v, c := range colors {
		classes[c] = append(classes[c], uint32(v))
	}
	idx := make([]int, 0, maxC)
	for c := 1; c <= maxC; c++ {
		if len(classes[c]) > 0 {
			idx = append(idx, c)
		}
	}
	switch strategy {
	case ReverseOrder:
		for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
			idx[i], idx[j] = idx[j], idx[i]
		}
	case LargestFirstOrder:
		sort.SliceStable(idx, func(a, b int) bool {
			return len(classes[idx[a]]) > len(classes[idx[b]])
		})
	case RandomOrder:
		for i := len(idx) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			idx[i], idx[j] = idx[j], idx[i]
		}
	}
	out := make([]uint32, len(colors))
	s := mex.New(g.MaxDegree())
	for _, c := range idx {
		for _, v := range classes[c] {
			out[v] = s.Greedy(g.Neighbors(v), out)
		}
	}
	return out
}

package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by nearest rank, or 0 for an
// empty sample (the metric's layer did not run). It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median is the 0.5 quantile of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

package harness

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Dataset is one synthetic stand-in for a Table V graph.
type Dataset struct {
	// Name is the suite-local identifier.
	Name string
	// StandsFor names the Table V family this graph substitutes.
	StandsFor string
	// Build generates the graph at the given scale multiplier.
	Build func(scale int) (*graph.Graph, error)
}

// DefaultSuite returns the dataset suite used by the figure experiments.
// scale 1 targets second-scale experiments on a laptop-class machine;
// higher scales grow n roughly linearly. The structural mix mirrors the
// paper's dataset categories (Table V): social/hyperlink (heavy-tailed),
// road (planar-ish), collaboration (community-heavy), plus neutral ER.
func DefaultSuite() []Dataset {
	return []Dataset{
		{
			Name:      "kron-social",
			StandsFor: "s-ork/s-pok (social networks)",
			Build: func(scale int) (*graph.Graph, error) {
				return gen.Kronecker(13+log2i(scale), 16, 101, 0)
			},
		},
		{
			Name:      "kron-web",
			StandsFor: "h-bai/h-hud (hyperlink graphs)",
			Build: func(scale int) (*graph.Graph, error) {
				return gen.Kronecker(14+log2i(scale), 8, 202, 0)
			},
		},
		{
			Name:      "ba-powerlaw",
			StandsFor: "s-flc/s-you (preferential attachment)",
			Build: func(scale int) (*graph.Graph, error) {
				return gen.BarabasiAlbert(20000*scale, 8, 303, 0)
			},
		},
		{
			Name:      "er-uniform",
			StandsFor: "m-wta (uniform interaction graphs)",
			Build: func(scale int) (*graph.Graph, error) {
				n := 20000 * scale
				return gen.ErdosRenyiGNM(n, int64(n)*8, 404, 0)
			},
		},
		{
			Name:      "grid-road",
			StandsFor: "v-usa (road networks)",
			Build: func(scale int) (*graph.Graph, error) {
				side := 150 * scale
				return gen.Grid2D(side, side, 0)
			},
		},
		{
			Name:      "community",
			StandsFor: "l-dbl/l-act (collaboration networks)",
			Build: func(scale int) (*graph.Graph, error) {
				n := 6000 * scale
				return gen.Community(n, n/60, 0.15, int64(n)*4, 505, 0)
			},
		},
		{
			Name:      "regular",
			StandsFor: "bounded-degree meshes",
			Build: func(scale int) (*graph.Graph, error) {
				return gen.RandomRegular(20000*scale, 8, 606, 0)
			},
		},
	}
}

func log2i(scale int) int {
	b := 0
	for 1<<uint(b+1) <= scale {
		b++
	}
	return b
}

// BuildSuite materializes the suite at a scale, returning named graphs.
type BuiltGraph struct {
	Dataset
	G *graph.Graph
}

// builtSuites holds each scale's suite once built. The graphs are
// immutable, so every experiment in a process shares them.
var builtSuites struct {
	sync.Mutex
	byScale map[int][]BuiltGraph
}

// BuildSuite builds every dataset at the given scale, once per scale
// per process; later calls return the same graphs in a fresh slice.
func BuildSuite(scale int) ([]BuiltGraph, error) {
	if scale < 1 {
		scale = 1
	}
	builtSuites.Lock()
	defer builtSuites.Unlock()
	if out, ok := builtSuites.byScale[scale]; ok {
		return slices.Clone(out), nil
	}
	var out []BuiltGraph
	for _, d := range DefaultSuite() {
		g, err := d.Build(scale)
		if err != nil {
			return nil, fmt.Errorf("harness: building %s: %v", d.Name, err)
		}
		out = append(out, BuiltGraph{Dataset: d, G: g})
	}
	if builtSuites.byScale == nil {
		builtSuites.byScale = map[int][]BuiltGraph{}
	}
	builtSuites.byScale[scale] = out
	return slices.Clone(out), nil
}

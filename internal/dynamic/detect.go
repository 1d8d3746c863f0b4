package dynamic

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// Source abstracts merged adjacency access so the conflict-frontier
// detector and the localized repair engine run over either a mutable
// Overlay or a plain immutable CSR graph. Both *Overlay and
// *graph.Graph satisfy it; the speculate-and-repair static engine
// (internal/speculate) is the first plain-CSR client.
type Source interface {
	// NumVertices returns the current vertex count.
	NumVertices() int
	// AppendNeighbors appends the sorted, duplicate-free neighbor list
	// of v to buf and returns it.
	AppendNeighbors(buf []uint32, v uint32) []uint32
}

// ConflictFrontier scans every edge of g and returns the sorted set of
// improperly colored vertices under colors: every endpoint of a
// monochromatic edge plus every uncolored vertex (color 0). It is the
// whole-graph form of the per-batch conflict detection Colored.Apply
// performs over a mutation diff — the same frontier contract
// (RepairColors recolors exactly this set), but computed from a plain
// CSR coloring with no Overlay in sight.
//
// The scan is one parallel pass over the vertices (par.Pack tests each
// once); the output order is the vertex order (par.Pack preserves
// index order), so the frontier is deterministic regardless of p.
func ConflictFrontier(g *graph.Graph, colors []uint32, p int) []uint32 {
	return par.Pack(p, g.NumVertices(), func(v int) bool {
		cv := colors[v]
		if cv == 0 {
			return true
		}
		for _, u := range g.Neighbors(uint32(v)) {
			if colors[u] == cv {
				return true
			}
		}
		return false
	})
}

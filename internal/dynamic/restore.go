package dynamic

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/verify"
)

// RestoreColored rebuilds a Colored from persisted state: a base graph
// captured at startVersion (a compacted snapshot, or an upload at
// version 0) together with the maintained coloring at that version.
// The coloring is verified proper against base before anything is
// adopted — a corrupt snapshot must fail recovery loudly, not serve
// monochromatic edges.
//
// Determinism contract: restoring (base@V, colors@V) and then applying
// batches V+1..V+k reproduces byte-for-byte the maintained coloring of
// the original process that applied the same batches — the repair pass
// mixes its seed with the overlay version, which the restore continues
// rather than resets, and the localized repair reads only merged
// adjacency, which is identical whether the base is the original CSR
// or a compacted snapshot of the same graph.
func RestoreColored(base *graph.Graph, colors []uint32, startVersion uint64, opts Options) (*Colored, error) {
	if len(colors) != base.NumVertices() {
		return nil, fmt.Errorf("dynamic: restore: %d colors for %d vertices", len(colors), base.NumVertices())
	}
	if err := verify.CheckProper(base, colors); err != nil {
		return nil, fmt.Errorf("dynamic: restore: persisted coloring invalid: %v", err)
	}
	c := &Colored{ov: NewOverlay(base), opts: opts.withDefaults()}
	c.ov.version = startVersion
	c.ov.snapVer = startVersion // the memoized snapshot (base itself) is current
	c.colors = append([]uint32(nil), colors...)
	c.counts = countColors(c.colors)
	return c, nil
}

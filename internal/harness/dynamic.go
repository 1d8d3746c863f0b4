package harness

import (
	"fmt"
	"time"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// DynamicRepair regenerates experiment E11 (no paper analogue — the
// paper's guarantees are static): on a Kronecker graph, mutation
// batches of growing size are applied to a dynamic.Colored and the
// localized incremental repair is compared against recoloring the
// whole snapshot from scratch with JP-ADG. Reported per batch size:
// the conflict frontier, the repaired-vertices fraction, mean repair
// latency vs. the median full-recolor latency (and their ratio),
// fallback count and the maintained color count.
func DynamicRepair(o Options) (string, error) {
	o = o.withDefaults()
	scale := 10 + o.Scale
	g, err := gen.Kronecker(scale, 16, o.Seed, o.Procs)
	if err != nil {
		return "", err
	}
	n := g.NumVertices()
	jpadg, err := lookupAll("JP-ADG")
	if err != nil {
		return "", err
	}

	batchSizes := []int{4, 16, 64, 256, 1024}
	batches := 4 * o.Trials
	t := &stats.Table{Header: []string{
		"batch", "confl/b", "dirty/b", "repair/b", "repairfrac",
		"repair[ms]", "full[ms]", "speedup", "fallbacks", "colors",
	}}
	for _, bs := range batchSizes {
		c := dynamic.NewColored(g, dynamic.Options{
			Procs: o.Procs, Seed: o.Seed, Epsilon: o.Epsilon,
		})
		rng := xrand.New(o.Seed + uint64(bs))
		var conflicts, dirty, repaired int64
		var repairSecs float64
		for b := 0; b < batches; b++ {
			var batch dynamic.Batch
			for i := 0; i < bs; i++ {
				u := uint32(rng.Intn(n))
				v := uint32(rng.Intn(n))
				if rng.Intn(4) == 0 {
					batch.DelEdges = append(batch.DelEdges, graph.Edge{U: u, V: v})
				} else {
					batch.AddEdges = append(batch.AddEdges, graph.Edge{U: u, V: v})
				}
			}
			start := time.Now()
			res, err := c.Apply(batch)
			if err != nil {
				return "", fmt.Errorf("dynamic: batch size %d: %v", bs, err)
			}
			repairSecs += time.Since(start).Seconds()
			conflicts += int64(res.ConflictEdges)
			dirty += int64(len(res.Dirty))
			repaired += int64(res.Repaired)
		}

		// The static yardstick: a full JP-ADG run on the final snapshot
		// (what a version bump costs without incremental repair).
		snap, err := c.Snapshot()
		if err != nil {
			return "", err
		}
		full, err := Sweep(single("snapshot", snap), jpadg, []Config{o.cfg()}, o.Trials)
		if err != nil {
			return "", err
		}
		fullSecs := full[0].Seconds
		meanRepair := repairSecs / float64(batches)
		speedup := 0.0
		if meanRepair > 0 {
			speedup = fullSecs / meanRepair
		}
		t.Add(bs,
			float64(conflicts)/float64(batches),
			float64(dirty)/float64(batches),
			float64(repaired)/float64(batches),
			float64(repaired)/float64(batches)/float64(n),
			1000*meanRepair, 1000*fullSecs, speedup,
			c.FullRecolors(), c.NumColors())
	}
	return fmt.Sprintf("E11: incremental repair vs full recolor (kron scale %d, n=%d, %d batches per size)\n",
		scale, n, batches) + t.String(), nil
}

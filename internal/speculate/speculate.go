// Package speculate implements SPEC-ADG, the optimistic
// speculate-and-repair static coloring engine. The JP family is
// round-synchronous: every round waits for the slowest vertex, which is
// exactly the depth cost the speculative school (Gebremedhin–Manne;
// Chen et al., "Sparse Graph Coloring on the GPU"; Taş & Kaya, "Greed
// is Good") avoids by coloring optimistically and then fixing the
// provably few conflicts. This package unifies that idea with the
// machinery this codebase already owns:
//
//  1. speculate: the ADG-O total order is cut into a fixed number of
//     chunks and each chunk is greedy-colored in one parallel pass with
//     NO synchronization inside the chunk — every vertex takes the
//     smallest color unused among its already-finalized neighbors,
//     optimistically ignoring edges to vertices being colored
//     concurrently (the speculation, exactly the conflict source of the
//     GPU speculative greedy in Chen et al.). Unlike the racy ITRB/GM
//     speculators in internal/spec, in-flight colors are never read, so
//     the guess is a pure function of (graph, seed) and bit-identical
//     at any worker count;
//  2. detect: conflicts can only sit on within-chunk edges, and the
//     sweep keeps each vertex's same-chunk neighbors, so each chunk
//     pass is followed by a scan that reads exactly the within-chunk
//     edges; the whole-graph form, dynamic.ConflictFrontier, re-checks
//     the final coloring once in one parallel pass;
//  3. repair: dynamic.RepairRegion — the localized JP-over-ADG repair
//     the mutation path uses, without its gather, coloring through
//     jp's one JP loop — recolors exactly the conflict set immediately
//     after the chunk that produced it (so later chunks constrain
//     against repaired colors and the greedy palette stays tight). It
//     reads only the chunk's lists: the dirty vertices' same-chunk
//     neighbors and the fixed colors the sweep listed for them. One
//     pass leaves the chunk proper by construction. A chunk whose
//     conflict set is too large a fraction of the graph for localized
//     repair to beat recoloring stops the sweep instead; the final
//     check then finds those conflicts, and any conflict it finds
//     makes the engine fall back to a full JP-ADG recolor over the
//     already-computed ordering.
//
// Determinism: the ADG order, the chunked greedy sweep, the packed
// conflict frontier and the repair are each deterministic functions of
// (graph, seed) independent of p, so SPEC-ADG carries the strong Las
// Vegas property the serving layer's result cache requires.
//
// Depth: the speculative sweep is SpecChunks barriers regardless of the
// coloring DAG, versus JP's per-wavefront rounds (hundreds on the kron
// family), while the total sweep work stays one adjacency scan, O(m).
// Detection and repair read only within-chunk arcs, so the run reads
// about 2m arcs: the sweep's m and the final check's m.
//
// Quality: each speculated color is the greedy mex over a subset of
// the neighborhood, bounded by deg(v)+1; repaired vertices likewise.
// The engine's provable bound is therefore the speculative family's
// Δ+1 (Table III class 1), while measured counts track JP-ADG closely
// because the chunk order coarsens the same ADG-O degeneracy order JP
// colors by (EXPERIMENTS.md, E14).
package speculate

import (
	"context"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/jp"
	"repro/internal/mex"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/verify"
)

// Options parameterizes a run. The zero value selects the paper-style
// evaluation settings: ε = 0.01, GOMAXPROCS workers, seed 0, 128
// speculation chunks and a 25% conflict fraction fallback (the dynamic
// engine's threshold).
type Options struct {
	// Procs is the worker count (<= 0: GOMAXPROCS).
	Procs int
	// Seed seeds the ADG orderings of the run and of its chunk
	// repairs. Equal seeds give bit-identical colorings at any Procs.
	// ADG-O's key is a vertex's unique position, so the seed's
	// tie-break permutation never decides an order, and every seed
	// gives the same coloring today.
	Seed uint64
	// Epsilon is the ADG ε for both the speculation priorities and the
	// repair/fallback orderings (0 selects 0.01).
	Epsilon float64
	// SpecChunks is the number of sequential chunk passes the ADG-O
	// order is cut into (0 selects 128, clamped to the vertex count).
	// Larger values mean less speculation: fewer within-chunk edges,
	// fewer conflicts, more barriers. SpecChunks=1 is maximal
	// speculation — a single fully-unsynchronized pass in which every
	// edge is speculated away, a stress configuration that exists to
	// exercise the fallback.
	SpecChunks int
	// FallbackFraction bounds the localized path: when the conflict
	// set exceeds this fraction of the vertices, a full JP-ADG recolor
	// replaces the repair (0 selects 0.25; negative disables fallback).
	FallbackFraction float64
}

func (o Options) withDefaults() Options {
	if o.Procs <= 0 {
		o.Procs = par.DefaultProcs()
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.01
	}
	if o.SpecChunks <= 0 {
		o.SpecChunks = 128
	}
	if o.FallbackFraction == 0 {
		o.FallbackFraction = 0.25
	}
	return o
}

// Result reports one speculate-and-repair run.
type Result struct {
	// Colors is the proper coloring (1-based, like the whole codebase).
	Colors []uint32
	// NumColors is the distinct color count.
	NumColors int
	// SpecChunks is the number of speculative chunk passes that ran.
	SpecChunks int
	// RepairRounds is the number of chunk repairs that ran: one per
	// chunk whose sweep left a conflict.
	RepairRounds int
	// Conflicts is the total number of dirty vertices handed to the
	// chunk repairs — the speculation's miss count.
	Conflicts int64
	// Repaired is how many of those actually changed color.
	Repaired int
	// Rounds is the total parallel round count: speculative chunk
	// passes, detection scans and inner localized-JP rounds (or the
	// full JP rounds when Fallback).
	Rounds int
	// Fallback reports that the engine gave up on localized repair and
	// ran a full JP-ADG recolor (result identical to JP-ADG's).
	Fallback bool
	// ReorderSeconds is the ADG ordering time (the reorder phase of the
	// Fig. 1 split); the caller measures the total.
	ReorderSeconds float64
	// SpecSeconds / RepairSeconds / FallbackSeconds split the coloring
	// time into the engine's phases: the unsynchronized chunk sweeps
	// plus conflict detection, the localized repairs, and the full
	// JP-ADG recolor when the engine fell back (0 when it didn't).
	// The harness exports them as per-phase timings.
	SpecSeconds     float64
	RepairSeconds   float64
	FallbackSeconds float64
	// OrderIterations is the ADG peeling round count.
	OrderIterations int
	// EdgesScanned counts the directed arcs the run reads (the work
	// proxy of RunResult): every arc of each swept chunk, the
	// within-chunk lists that detection and repair read, the
	// whole-graph check, and the fallback if it ran.
	EdgesScanned int64
}

// timed measures fn (the same split the harness reports).
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// Color runs the engine with a background context.
func Color(g *graph.Graph, opts Options) (*Result, error) {
	return ColorContext(context.Background(), g, opts)
}

// ColorContext runs speculate → detect → repair chunk by chunk, then
// checks the whole coloring once, cooperatively checking ctx once per
// parallel phase. The returned coloring is always proper (the repair
// invariant is verified by every caller through harness.RunChecked; the
// engine itself guarantees it by construction).
func ColorContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	p := opts.Procs
	res := &Result{}

	var ord *order.Ordering
	var err error
	res.ReorderSeconds = timed(func() {
		ord, err = order.ADGContext(ctx, g, order.ADGOptions{
			Epsilon: opts.Epsilon, Procs: p, Seed: opts.Seed, Sorted: true,
		})
	})
	if err != nil {
		return nil, err
	}
	res.OrderIterations = ord.Iterations

	colors, err := speculateColors(ctx, g, ord, opts, res)
	if err != nil {
		return nil, err
	}

	// One whole-graph check. Each chunk repair left the coloring proper,
	// so a conflict here means a chunk stopped the sweep on the fraction
	// bound, and JP-ADG recolors the whole graph.
	if err := par.CtxErr(ctx); err != nil {
		return nil, err
	}
	var conflict bool
	res.SpecSeconds += timed(func() { conflict = len(dynamic.ConflictFrontier(g, colors, p)) > 0 })
	res.Rounds++
	res.EdgesScanned += g.NumArcs()
	if conflict {
		var jr *jp.Result
		res.FallbackSeconds = timed(func() { jr, err = jp.ColorContext(ctx, g, ord, p) })
		if err != nil {
			return nil, err
		}
		colors = jr.Colors
		res.Fallback = true
		res.Rounds += jr.Rounds
		res.EdgesScanned += jr.EdgesScanned
	}

	res.Colors = colors
	res.NumColors = verify.NumColors(colors)
	return res, nil
}

// sweepBlock is one worker block's scratch for a chunk's sweep: its mex
// set, the end hi of the chunk positions it swept, their same-chunk
// neighbor lists and fixed-color lists, and running totals of the arcs
// it read and the largest color it gave.
type sweepBlock struct {
	mex      mex.Set
	hi       int
	local    []uint32
	fixed    []uint32
	arcs     int64
	maxColor uint32
}

// speculateColors produces the optimistic coloring: the ADG-O total
// order (ord.Rank is the fine-grained position — higher = colored
// earlier) is cut into SpecChunks contiguous chunks and each chunk is
// colored by one unsynchronized parallel greedy pass. A vertex takes
// the mex over neighbors in OTHER chunks only: earlier chunks are
// final, later chunks are still uncolored, and same-chunk neighbors
// are being written concurrently so their entries are never read —
// both the race-freedom and the speculation in one test. The whole
// sweep scans each adjacency list exactly once (O(m) work) in
// SpecChunks barriers, and every monochromatic edge it can leave
// behind joins two vertices of one chunk.
//
// So the sweep keeps, for each vertex, its same-chunk neighbors (as
// chunk positions), and for a vertex that has any, the fixed colors of
// its other-chunk neighbors up to deg+1: after the scan it tests colors
// 1..min(deg+1, the largest color of the earlier chunks) in its mex
// set. The within-chunk conflict scan then reads only the same-chunk
// lists, and the chunk's localized repair gets its region from them
// too, so no adjacency list is read twice and later chunks are
// constrained by final (repaired) colors. If a chunk's conflict set
// exceeds the fallback fraction the sweep stops early and leaves the
// conflicts to the caller's whole-graph check, which falls back.
func speculateColors(ctx context.Context, g *graph.Graph, ord *order.Ordering, opts Options, res *Result) ([]uint32, error) {
	p := opts.Procs
	n := g.NumVertices()
	colors := make([]uint32, n)
	if n == 0 {
		return colors, nil
	}
	chunks := min(opts.SpecChunks, n)
	// Chunk c covers order positions [ceil(c·n/B), ceil((c+1)·n/B)),
	// and n-1-Rank[v] is v's position, so a neighbor's position less
	// the chunk start says whether it is in the chunk and where.
	rank := ord.Rank
	byOrder := make([]uint32, n)
	par.For(p, n, func(v int) { byOrder[n-1-int(rank[v])] = uint32(v) })
	chunkLo := func(c int) int {
		return int((int64(c)*int64(n) + int64(chunks) - 1) / int64(chunks))
	}

	maxDeg := g.MaxDegree()
	blocks := make([]*sweepBlock, p)
	for w := range blocks {
		blocks[w] = &sweepBlock{mex: mex.New(maxDeg)}
	}
	// Scratch sized by the largest chunk and reused by every chunk: the
	// weight prefix, the end of each position's same-chunk and fixed
	// lists in local and fixed, and each position's dirty slot (local
	// index + 1, 0 when clean).
	maxSize := chunkLo(1)
	wscratch := make([]int64, maxSize+1)
	localEnd := make([]int, maxSize+1)
	fixedEnd := make([]int, maxSize+1)
	slot := make([]int32, maxSize)
	var local, fixed []uint32
	var region dynamic.Region
	var maxColor uint32 // the largest color of the chunks done
	dOpts := dynamic.Options{Procs: p, Seed: opts.Seed, Epsilon: opts.Epsilon}
	for c := 0; c < chunks; c++ {
		if err := par.CtxErr(ctx); err != nil {
			return nil, err
		}
		start := chunkLo(c)
		chunk := byOrder[start:chunkLo(c+1)]
		size := len(chunk)
		var dirtyPos []uint32
		res.SpecSeconds += timed(func() {
			par.ForWorkersWeightedBy(p, size, wscratch, func(i int) int64 {
				return 1 + int64(g.Degree(chunk[i]))
			}, func(w, lo, hi int) {
				b := blocks[w]
				b.hi = hi
				b.local, b.fixed = b.local[:0], b.fixed[:0]
				for i := lo; i < hi; i++ {
					ns := g.Neighbors(chunk[i])
					b.arcs += int64(len(ns))
					b.mex.Reset()
					mark := len(b.local)
					for _, u := range ns {
						if j := n - 1 - int(rank[u]) - start; uint(j) < uint(size) {
							b.local = append(b.local, uint32(j))
						} else {
							b.mex.Forbid(colors[u])
						}
					}
					col := b.mex.Smallest()
					colors[chunk[i]] = col
					b.maxColor = max(b.maxColor, col)
					if len(b.local) > mark {
						top := min(uint32(len(ns)+1), maxColor)
						for fc := uint32(1); fc <= top; fc++ {
							if b.mex.Forbidden(fc) {
								b.fixed = append(b.fixed, fc)
							}
						}
					}
					localEnd[i+1] = len(b.local)
					fixedEnd[i+1] = len(b.fixed)
				}
			})
			// The blocks that ran cover [0, size) in worker order; put
			// their lists end to end, shifting each block's offsets.
			local, fixed = local[:0], fixed[:0]
			for w, pos := 0, 0; pos < size; w++ {
				b := blocks[w]
				if w > 0 {
					for i := pos; i < b.hi; i++ {
						localEnd[i+1] += len(local)
						fixedEnd[i+1] += len(fixed)
					}
				}
				local = append(local, b.local...)
				fixed = append(fixed, b.fixed...)
				res.EdgesScanned += b.arcs
				b.arcs = 0
				maxColor = max(maxColor, b.maxColor)
				pos = b.hi
			}

			// Detect within-chunk conflicts (the only edges the pass
			// speculated away) over the same-chunk lists alone. Pack
			// keeps chunk order, so the dirty sequence — and through it
			// the repair — is deterministic at any p.
			dirtyPos = par.Pack(p, size, func(i int) bool {
				cv := colors[chunk[i]]
				for _, j := range local[localEnd[i]:localEnd[i+1]] {
					if colors[chunk[j]] == cv {
						return true
					}
				}
				return false
			})
		})
		res.SpecChunks++
		res.Rounds += 2 // the sweep pass and the detection scan
		res.EdgesScanned += int64(len(local))
		if len(dirtyPos) == 0 {
			continue
		}
		if opts.FallbackFraction >= 0 &&
			float64(len(dirtyPos)) > opts.FallbackFraction*float64(n) {
			// Too much speculation failed at once (e.g. SpecChunks=1
			// colors everything 1). Leave the conflicts in place: the
			// caller's whole-graph detection sees them — plus the
			// still-uncolored later chunks — and falls back to JP-ADG.
			return colors, nil
		}
		res.RepairRounds++
		res.Conflicts += int64(len(dirtyPos))
		var repaired, rounds int
		res.RepairSeconds += timed(func() {
			// The region: each dirty vertex's dirty same-chunk
			// neighbors, in dirty order, and as fixed colors its sweep
			// list plus its clean same-chunk neighbors' colors.
			for k, i := range dirtyPos {
				slot[i] = int32(k) + 1
			}
			region.Dirty, region.Local, region.Fixed = region.Dirty[:0], region.Local[:0], region.Fixed[:0]
			region.LocalOff, region.FixedOff = append(region.LocalOff[:0], 0), append(region.FixedOff[:0], 0)
			for _, i := range dirtyPos {
				region.Dirty = append(region.Dirty, chunk[i])
				region.Fixed = append(region.Fixed, fixed[fixedEnd[i]:fixedEnd[i+1]]...)
				for _, j := range local[localEnd[i]:localEnd[i+1]] {
					if k := slot[j]; k != 0 {
						region.Local = append(region.Local, uint32(k-1))
					} else {
						region.Fixed = append(region.Fixed, colors[chunk[j]])
					}
				}
				region.LocalOff = append(region.LocalOff, len(region.Local))
				region.FixedOff = append(region.FixedOff, len(region.Fixed))
				res.EdgesScanned += int64(localEnd[i+1] - localEnd[i])
			}
			for _, i := range dirtyPos {
				slot[i] = 0
			}
			repaired, rounds = dynamic.RepairRegion(colors, &region, dOpts, uint64(c)+1)
		})
		res.Repaired += repaired
		res.Rounds += rounds
		for _, v := range region.Dirty {
			maxColor = max(maxColor, colors[v])
		}
	}
	return colors, nil
}

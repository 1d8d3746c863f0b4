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
//     GPU speculative greedy in Chen et al.). Unlike the racy ITR/GM
//     speculators in internal/spec, in-flight colors are never read, so
//     the guess is a pure function of (graph, seed) and bit-identical
//     at any worker count;
//  2. detect: conflicts can only sit on within-chunk edges, so each
//     chunk pass is followed by a scan of exactly those edges; the
//     whole-graph form, dynamic.ConflictFrontier, re-checks the final
//     coloring in one edge-balanced parallel pass and drives the
//     defensive outer loop;
//  3. repair: dynamic.RepairColors — the localized JP-over-ADG repair
//     the mutation path uses — recolors exactly the conflict set,
//     reading only its distance-1 closure, immediately after the
//     chunk that produced it (so later chunks constrain against
//     repaired colors and the greedy palette stays tight). One pass
//     leaves the chunk proper by construction; the outer loop iterates
//     defensively under a round cap, falling back to a full JP-ADG
//     recolor (over the already-computed ordering) if the cap trips or
//     the conflict set is too large a fraction of the graph for
//     localized repair to beat recoloring.
//
// Determinism: the ADG order, the chunked greedy sweep, the packed
// conflict frontier and the repair are each deterministic functions of
// (graph, seed) independent of p, so SPEC-ADG carries the strong Las
// Vegas property the serving layer's result cache requires.
//
// Depth: the speculative sweep is SpecChunks barriers regardless of the
// coloring DAG, versus JP's per-wavefront rounds (hundreds on the kron
// family), while the total sweep work stays one adjacency scan, O(m).
//
// Quality: each speculated color is the greedy mex over a subset of
// the neighborhood, bounded by deg(v)+1; repaired vertices likewise.
// The engine's provable bound is therefore the speculative family's
// Δ+1 (Table III class 1), while measured counts track JP-ADG closely
// because the chunk order coarsens the same ADG-O degeneracy order JP
// colors by (see BENCH_PR8.json).
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
// speculation chunks, a 4-iteration repair cap and a 25% conflict
// fraction fallback (the dynamic engine's threshold).
type Options struct {
	// Procs is the worker count (<= 0: GOMAXPROCS).
	Procs int
	// Seed fixes all randomness; equal seeds give bit-identical
	// colorings at any Procs.
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
	// MaxRepairRounds caps detect+repair iterations before the engine
	// falls back to a full JP-ADG recolor (0 selects 4; negative
	// disables the cap). One iteration suffices — the repair is proper
	// by construction — so the cap is a safety net.
	MaxRepairRounds int
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
	if o.MaxRepairRounds == 0 {
		o.MaxRepairRounds = 4
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
	// RepairRounds is the number of detect+repair iterations that ran
	// (excluding the final empty-frontier detection pass).
	RepairRounds int
	// Conflicts is the total number of dirty vertices handed to repair
	// across all iterations — the speculation's miss count.
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
	// EdgesScanned counts directed arc reads across speculation,
	// detection and repair (the work proxy of RunResult).
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

// ColorContext runs speculate → detect → repair until the coloring is
// proper, cooperatively checking ctx once per parallel phase. The
// returned coloring is always proper (the repair invariant is verified
// by every caller through harness.RunChecked; the engine itself
// guarantees it by construction).
func ColorContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	p := opts.Procs
	n := g.NumVertices()
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

	// Defensive outer loop. The per-chunk repair already left the
	// coloring proper unless a chunk bailed out on the fraction bound,
	// so the common path is one clean whole-graph detection pass.
	for iter := 0; ; iter++ {
		if err := par.CtxErr(ctx); err != nil {
			return nil, err
		}
		var dirty []uint32
		res.SpecSeconds += timed(func() { dirty = dynamic.ConflictFrontier(g, colors, p) })
		res.Rounds++
		res.EdgesScanned += g.NumArcs()
		if len(dirty) == 0 {
			break
		}
		tooMany := opts.FallbackFraction >= 0 &&
			float64(len(dirty)) > opts.FallbackFraction*float64(n)
		capped := opts.MaxRepairRounds >= 0 && iter >= opts.MaxRepairRounds
		if tooMany || capped {
			var jr *jp.Result
			var jerr error
			res.FallbackSeconds += timed(func() { jr, jerr = jp.ColorContext(ctx, g, ord, p) })
			if jerr != nil {
				return nil, jerr
			}
			colors = jr.Colors
			res.Fallback = true
			res.Rounds += jr.Rounds
			res.EdgesScanned += jr.EdgesScanned
			break
		}
		res.RepairRounds++
		res.Conflicts += int64(len(dirty))
		var repaired, rounds int
		res.RepairSeconds += timed(func() {
			repaired, rounds = dynamic.RepairColors(g, colors, dirty,
				dynamic.Options{Procs: p, Seed: opts.Seed, Epsilon: opts.Epsilon},
				// Salt repairs past the chunk range so every repair in the
				// run draws fresh tie-breaks while the whole run stays a
				// pure function of the seed.
				uint64(opts.SpecChunks+iter)+1)
		})
		res.Repaired += repaired
		res.Rounds += rounds
		for _, v := range dirty {
			res.EdgesScanned += int64(g.Degree(v))
		}
	}

	res.Colors = colors
	res.NumColors = verify.NumColors(colors)
	return res, nil
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
// behind joins two vertices of one chunk — so each pass is followed by
// a within-chunk conflict scan and an immediate localized repair,
// keeping later chunks constrained by final (repaired) colors. If a
// chunk's conflict set exceeds the fallback fraction the sweep bails
// out early and leaves the decision to the caller's outer loop.
func speculateColors(ctx context.Context, g *graph.Graph, ord *order.Ordering, opts Options, res *Result) ([]uint32, error) {
	p := opts.Procs
	n := g.NumVertices()
	colors := make([]uint32, n)
	if n == 0 {
		return colors, nil
	}
	chunks := opts.SpecChunks
	if chunks > n {
		chunks = n
	}
	// Chunk c covers order positions [ceil(c·n/B), ceil((c+1)·n/B)), so
	// position i maps to chunk ⌊i·B/n⌋ — the two forms agree exactly.
	byOrder := make([]uint32, n)
	chunkOf := make([]uint32, n)
	par.For(p, n, func(v int) {
		i := n - 1 - int(ord.Rank[v])
		byOrder[i] = uint32(v)
		chunkOf[v] = uint32(int64(i) * int64(chunks) / int64(n))
	})

	maxDeg := g.MaxDegree()
	states := make([]*mex.Set, p)
	for w := range states {
		st := mex.New(maxDeg)
		states[w] = &st
	}
	wscratch := make([]int64, n+1)
	chunkLo := func(c int) int {
		return int((int64(c)*int64(n) + int64(chunks) - 1) / int64(chunks))
	}
	dOpts := dynamic.Options{Procs: p, Seed: opts.Seed, Epsilon: opts.Epsilon}
	for c := 0; c < chunks; c++ {
		if err := par.CtxErr(ctx); err != nil {
			return nil, err
		}
		chunk := byOrder[chunkLo(c):chunkLo(c+1)]
		cc := uint32(c)
		var dirtyIdx []uint32
		res.SpecSeconds += timed(func() {
			par.ForWorkersWeightedBy(p, len(chunk), wscratch, func(i int) int64 {
				return 1 + int64(g.Degree(chunk[i]))
			}, func(w, lo, hi int) {
				st := states[w]
				for i := lo; i < hi; i++ {
					v := chunk[i]
					st.Reset()
					for _, u := range g.Neighbors(v) {
						if chunkOf[u] != cc {
							st.Forbid(colors[u])
						}
					}
					colors[v] = st.Smallest()
				}
			})

			// Detect within-chunk conflicts (the only edges the pass
			// speculated away) and repair them before the next chunk reads
			// these colors. Pack keeps chunk order, so the dirty sequence —
			// and through it the repair — is deterministic at any p.
			dirtyIdx = par.Pack(p, len(chunk), func(i int) bool {
				v := chunk[i]
				cv := colors[v]
				for _, u := range g.Neighbors(v) {
					if chunkOf[u] == cc && colors[u] == cv {
						return true
					}
				}
				return false
			})
		})
		res.SpecChunks++
		res.Rounds += 2 // the sweep pass and the detection scan
		if len(dirtyIdx) == 0 {
			continue
		}
		if opts.FallbackFraction >= 0 &&
			float64(len(dirtyIdx)) > opts.FallbackFraction*float64(n) {
			// Too much speculation failed at once (e.g. SpecChunks=1
			// colors everything 1). Leave the conflicts in place: the
			// caller's whole-graph detection sees them — plus the
			// still-uncolored later chunks — and falls back to JP-ADG.
			return colors, nil
		}
		dirty := make([]uint32, len(dirtyIdx))
		for i, idx := range dirtyIdx {
			dirty[i] = chunk[idx]
		}
		res.RepairRounds++
		res.Conflicts += int64(len(dirty))
		var repaired, rounds int
		res.RepairSeconds += timed(func() {
			repaired, rounds = dynamic.RepairColors(g, colors, dirty, dOpts, uint64(c)+1)
		})
		res.Repaired += repaired
		res.Rounds += rounds
		for _, v := range dirty {
			res.EdgesScanned += int64(g.Degree(v))
		}
	}
	// The greedy sweep and the per-chunk detection each scan every
	// surviving adjacency list exactly once.
	res.EdgesScanned += 2 * g.NumArcs()
	return colors, nil
}

// Package jp implements the Jones–Plassmann coloring engine of Algorithm 3,
// the one JP loop of the codebase: every ordering of Table III class 3
// (JP-FF, JP-R, JP-LF, JP-LLF, JP-SL, JP-SLL, JP-ASL, JP-ADG and
// JP-ADG-M, built in internal/order and paired with it by the harness
// registry), the fallback of SPEC-ADG and the localized repair of
// internal/dynamic all color through it.
//
// The engine colors the DAG Gρ induced by a priority order: a vertex is
// colored with the smallest color unused by its predecessors once all of
// them are colored (GetColor); coloring a vertex decrements the pending
// counter of each successor via the Join/DecrementAndFetch primitive and
// releases those that hit zero (JPColor). Execution proceeds in frontier
// rounds; the number of rounds equals the longest path |P| in Gρ, the
// quantity Lemma 7 bounds for ADG priorities.
package jp

import (
	"context"
	"slices"

	"repro/internal/graph"
	"repro/internal/mex"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/verify"
)

// Result is the outcome of one JP run.
type Result struct {
	// Colors[v] >= 1 is the color of vertex v.
	Colors []uint32
	// NumColors is the number of distinct colors used.
	NumColors int
	// Rounds is the number of frontier rounds, which equals the longest
	// directed path in the priority DAG (the depth term of Theorem 1).
	Rounds int
	// EdgesScanned counts adjacency-list words read (work proxy, Fig. 4).
	EdgesScanned int64
	// AtomicOps counts Join decrements performed (memory-pressure proxy);
	// in a round that runs as one block they are plain decrements.
	AtomicOps int64
}

// workerState is per-worker scratch: GetColor's forbidden set and the
// vertices this worker released for the next round. The tail of next
// past its length is the successor buffer of the vertex being colored.
type workerState struct {
	mex   mex.Set
	next  []uint32
	edges int64
	atoms int64
}

// Color runs JP on g under the total priority order ord. If ord.PredCount
// is non-nil (the fused ADG-O output, §V-C) the DAG-construction pass is
// skipped. p <= 0 selects GOMAXPROCS workers. The coloring is a
// deterministic function of (g, ord): scheduling cannot change it.
func Color(g *graph.Graph, ord *order.Ordering, p int) *Result {
	res, _ := ColorContext(context.Background(), g, ord, p)
	return res
}

// ColorContext is Color with cooperative cancellation: ctx is checked
// once per frontier round (the natural preemption point — rounds are the
// depth unit of Theorem 1), so a cancelled long-running request returns
// within one round instead of running to completion. On cancellation the
// partial coloring is discarded and ctx.Err() is returned.
func ColorContext(ctx context.Context, g *graph.Graph, ord *order.Ordering, p int) (*Result, error) {
	return ColorFixed(ctx, g, ord, p, nil, nil)
}

// ColorFixed is ColorContext on a g cut out of a larger graph whose
// other vertices keep their colors: fixed[fixedOff[v]:fixedOff[v+1]]
// are the colors v's neighbors outside g hold (repeats allowed, in
// dynamic.Region's layout), and v avoids them as well as its
// predecessors' colors. A nil fixedOff means g has no outside
// neighbors.
func ColorFixed(ctx context.Context, g *graph.Graph, ord *order.Ordering, p int, fixedOff []int, fixed []uint32) (*Result, error) {
	n := g.NumVertices()
	if p <= 0 {
		p = par.DefaultProcs()
	}
	res := &Result{Colors: make([]uint32, n)}
	if n == 0 {
		return res, nil
	}
	keys := ord.Keys

	// Part 1 of Algorithm 3: pending predecessor counters.
	var counts []int32
	if ord.PredCount != nil {
		counts = make([]int32, n)
		copy(counts, ord.PredCount)
	} else {
		counts = order.PredCounts(g, keys, p)
		res.EdgesScanned += g.NumArcs()
	}

	// Roots: vertices with no predecessors.
	frontier := par.Pack(p, n, func(v int) bool { return counts[v] == 0 })

	// Per-worker scratch. A vertex with k forbidden entries gets a color
	// of at most k+1, so the mex sets are sized by the largest degree
	// plus fixed count.
	maxForbidden := g.MaxDegree()
	if fixedOff != nil {
		for v := range n {
			maxForbidden = max(maxForbidden, g.Degree(uint32(v))+fixedOff[v+1]-fixedOff[v])
		}
	}
	states := make([]workerState, p)
	for w := range states {
		states[w].mex = mex.New(maxForbidden)
	}

	colors := res.Colors
	// Per-round scratch, hoisted: the weight prefix for the edge-balanced
	// frontier split (read only when the round may split, p > 1) and the
	// per-block counts/offsets for the PrefixSum frontier compaction.
	var wscratch []int64
	if p > 1 {
		wscratch = make([]int64, n+1)
	}
	nextCounts := make([]int32, len(states))
	nextOffs := make([]int64, len(states)+1)
	for len(frontier) > 0 {
		if err := par.CtxErr(ctx); err != nil {
			return nil, err
		}
		res.Rounds++
		fr := frontier
		// Frontier work is dominated by adjacency scans, so blocks are
		// balanced by degree (edge count), not vertex count: contiguous
		// vertex chunking load-imbalances badly on skewed frontiers.
		par.ForWorkersWeightedBy(p, len(fr), wscratch, func(i int) int64 {
			return int64(g.Degree(fr[i]))
		}, func(w, lo, hi int) {
			st := &states[w]
			// A block that is the whole round runs alone, so no other
			// goroutine touches the counters and a plain decrement does.
			shared := lo != 0 || hi != len(fr)
			for i := lo; i < hi; i++ {
				v := fr[i]
				var vfixed []uint32
				if fixedOff != nil {
					vfixed = fixed[fixedOff[v]:fixedOff[v+1]]
				}
				colors[v] = st.color(g.Neighbors(v), vfixed, colors, counts, shared)
			}
		})
		// Collect the next frontier: per-worker buffers are compacted with
		// an exclusive PrefixSum over their lengths and copied in block
		// order — the output is a deterministic function of the round's
		// blocking, independent of scheduling. The copy runs inline: it
		// loops over p buffers, far below the pool's sequential grain.
		for w, st := range states {
			nextCounts[w] = int32(len(st.next))
		}
		total := par.PrefixSumInt32(1, nextCounts, nextOffs)
		nf := make([]uint32, total)
		for w := range states {
			st := &states[w]
			copy(nf[nextOffs[w]:nextOffs[w+1]], st.next)
			st.next = st.next[:0]
		}
		frontier = nf
	}
	for _, st := range states {
		res.EdgesScanned += st.edges
		res.AtomicOps += st.atoms
	}
	res.NumColors = verify.NumColors(colors)
	return res, nil
}

// color does GetColor and JPColor for a vertex with neighbors ns that
// must also avoid the colors fixed, in one scan, and returns its color.
// When a vertex is colored, its colored neighbors are exactly its
// predecessors: every predecessor was colored in an earlier round, and
// no successor can be colored before the vertex releases it. So the
// scan takes no branch that depends on the data: it forbids every
// neighbor's color (an uncolored one's 0 lands in slot 0, which
// Smallest never reads) and stores every neighbor into the successor
// buffer, the tail of st.next, at an index that advances only past an
// uncolored one. A second loop joins each successor on its pending
// counter, atomically only when shared, and keeps those whose last
// predecessor this was in st.next.
func (st *workerState) color(ns, fixed, colors []uint32, counts []int32, shared bool) uint32 {
	st.mex.Reset()
	for _, c := range fixed {
		st.mex.Forbid(c)
	}
	st.edges += int64(len(ns))
	base := len(st.next)
	buf := slices.Grow(st.next, len(ns))
	succ := buf[base : base+len(ns)]
	k := 0
	for _, u := range ns {
		c := colors[u]
		st.mex.Forbid(c)
		succ[k] = u
		if c == 0 {
			k++
		}
	}
	st.atoms += int64(k)
	kept := 0
	for _, u := range succ[:k] {
		succ[kept] = u
		if par.Join(&counts[u], shared) {
			kept++
		}
	}
	st.next = buf[:base+kept]
	return st.mex.Smallest()
}

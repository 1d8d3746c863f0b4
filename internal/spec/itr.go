package spec

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/mex"
	"repro/internal/par"
	"repro/internal/xrand"
)

// ITR is the speculative scheme of Çatalyürek et al. [40]: every round,
// all unresolved vertices tentatively take the smallest color not used by
// any neighbor (reading the previous round's state), then conflicts —
// equal colors across an edge — send the lower-random-priority endpoint
// back for recoloring. Because recolored vertices always exclude the
// colors of settled neighbors, a monochromatic edge can only join two
// vertices recolored in the same round, so detection over that set is
// complete and the scheme is Las Vegas.
func ITR(g *graph.Graph, opts Options) *Result {
	return itrColor(g, opts, 0)
}

// ITRB is the superstep variant of Boman et al. [38]: within a round the
// unresolved vertices are tentatively colored batch by batch (each batch
// sees the fresh colors of earlier batches), which trades synchronization
// for fewer conflicts — the Zoltan configuration the paper benchmarks.
func ITRB(g *graph.Graph, opts Options) *Result {
	b := opts.BatchSize
	if b <= 0 {
		b = g.NumVertices()/(4*opts.procs()) + 1
	}
	return itrColor(g, opts, b)
}

// itrColor implements both ITR (batch = 0: one batch per round) and ITRB.
func itrColor(g *graph.Graph, opts Options, batch int) *Result {
	n := g.NumVertices()
	p := opts.procs()
	res := &Result{Colors: make([]uint32, n)}
	if n == 0 {
		return res
	}
	prio := xrand.New(opts.Seed).Perm(n, nil)
	colors := res.Colors
	tmp := make([]uint32, n)
	u := make([]uint32, n)
	for i := range u {
		u[i] = uint32(i)
	}
	states := newWorkers(g, p)
	for len(u) > 0 {
		res.Rounds++
		// Tentative coloring, batch by batch (ITR: a single batch).
		step := len(u)
		if batch > 0 && batch < step {
			step = batch
		}
		for lo := 0; lo < len(u); lo += step {
			hi := lo + step
			if hi > len(u) {
				hi = len(u)
			}
			// Edge-balanced blocks: tentative coloring scans each
			// vertex's adjacency list.
			par.ForWorkersWeightedBy(p, hi-lo, nil, func(i int) int64 {
				return int64(g.Degree(u[lo+i]))
			}, func(w, blo, bhi int) {
				st := states[w]
				for i := blo; i < bhi; i++ {
					v := u[lo+i]
					tmp[v] = st.mex.Greedy(g.Neighbors(v), colors)
					st.edges += int64(g.Degree(v))
				}
			})
			// Apply the batch synchronously.
			par.For(p, hi-lo, func(i int) {
				v := u[lo+i]
				colors[v] = tmp[v]
			})
		}
		// Conflict detection: the lower-priority endpoint recolors.
		lose := par.Pack(p, len(u), func(i int) bool {
			v := u[i]
			cv := colors[v]
			for _, nb := range g.Neighbors(v) {
				if colors[nb] == cv && prio[nb] > prio[v] {
					return true
				}
			}
			return false
		})
		res.Conflicts += int64(len(lose))
		nu := make([]uint32, len(lose))
		par.For(p, len(lose), func(i int) { nu[i] = u[lose[i]] })
		// Clear losers so the next tentative pass does not see their
		// stale colors as taken.
		par.For(p, len(nu), func(i int) { colors[nu[i]] = 0 })
		u = nu
	}
	for _, st := range states {
		res.EdgesScanned += st.edges
	}
	res.finish()
	return res
}

// GM is the early speculative scheme of Gebremedhin and Manne [37]:
// phase 1 block-partitions the vertices over p workers which greedily
// color their blocks concurrently (benign races may produce conflicts);
// phase 2 detects conflicted vertices; phase 3 recolors them sequentially.
func GM(g *graph.Graph, opts Options) *Result {
	n := g.NumVertices()
	p := opts.procs()
	res := &Result{Colors: make([]uint32, n)}
	if n == 0 {
		return res
	}
	prio := xrand.New(opts.Seed).Perm(n, nil)
	colors := res.Colors
	states := newWorkers(g, p)
	// Phase 1: concurrent block-wise greedy. The cross-block races the
	// original algorithm tolerates are expressed with atomic loads/stores
	// so the speculation is data-race-free at the memory-model level
	// while still producing the same kind of conflicts.
	par.ForWorkers(p, n, func(w, lo, hi int) {
		st := states[w]
		for v := lo; v < hi; v++ {
			st.mex.Reset()
			for _, nb := range g.Neighbors(uint32(v)) {
				st.mex.Forbid(atomic.LoadUint32(&colors[nb]))
			}
			atomic.StoreUint32(&colors[v], st.mex.Smallest())
			st.edges += int64(g.Degree(uint32(v)))
		}
	})
	res.Rounds++
	// Phase 2: detect conflicts (lower priority loses).
	lose := par.Pack(p, n, func(v int) bool {
		cv := colors[v]
		for _, nb := range g.Neighbors(uint32(v)) {
			if colors[nb] == cv && prio[nb] > prio[uint32(v)] {
				return true
			}
		}
		return false
	})
	res.Conflicts = int64(len(lose))
	// Phase 3: sequential repair.
	if len(lose) > 0 {
		res.Rounds++
		st := states[0]
		for _, v := range lose {
			colors[v] = 0
		}
		for _, v := range lose {
			colors[v] = st.mex.Greedy(g.Neighbors(v), colors)
			st.edges += int64(g.Degree(v))
		}
	}
	for _, st := range states {
		res.EdgesScanned += st.edges
	}
	res.finish()
	return res
}

// worker is one worker's forbidden-color set and its count of
// adjacency words read.
type worker struct {
	mex   mex.Set
	edges int64
}

func newWorkers(g *graph.Graph, p int) []*worker {
	maxDeg := g.MaxDegree()
	states := make([]*worker, p)
	for w := range states {
		states[w] = &worker{mex: mex.New(maxDeg)}
	}
	return states
}

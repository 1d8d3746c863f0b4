package order

import (
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sortutil"
)

// ADGOptions configures the approximate-degeneracy-ordering family.
type ADGOptions struct {
	// Epsilon is the approximation knob ε ≥ 0 of Algorithm 1. Larger ε
	// removes more vertices per round (more parallelism, fewer rounds)
	// at the cost of a looser 2(1+ε) approximation factor.
	Epsilon float64
	// Procs is the worker count; <= 0 selects GOMAXPROCS.
	Procs int
	// Seed drives the random tie-breaking permutation ρ_R.
	Seed uint64
	// Median selects ADG-M (§V-D): remove the lower half of the degree
	// distribution each round instead of the (1+ε)·average threshold.
	// The ordering becomes partial 4-approximate (Lemma 15).
	Median bool
	// CREW forces the concurrent-read-only UPDATE of Algorithm 2 in
	// every iteration: survivors recount their removed neighbors
	// pull-style and nothing is written concurrently (§III-B). Without
	// it, each iteration takes the cheaper direction (see pullCheaper):
	// that pull, or Algorithm 1's push of one DecrementAndFetch per arc
	// from the batch into a survivor. The output is the same either way.
	CREW bool
	// Sorted selects ADG-O (Algorithm 6, §V-B/C): each batch is sorted
	// by residual degree into an explicit total order, and the JP
	// in-degree array ("rank") is fused into UPDATE, letting JP skip its
	// DAG-construction pass.
	Sorted bool
	// Sort selects the integer sort used by ADG-O to order each batch
	// (§V-B experiments with radix, counting and quicksort).
	Sort SortAlg
	// CacheDegreeSums enables the §V-F optimization: the degree sum of
	// the active set is maintained incrementally (subtracting the cut to
	// each removed batch) instead of being recomputed by a Reduce every
	// iteration. Identical output, slightly less work.
	CacheDegreeSums bool
}

// SortAlg selects the in-batch sorting algorithm for ADG-O (§V-B).
type SortAlg int

const (
	// SortCounting is linear-time counting sort (the paper's default).
	SortCounting SortAlg = iota
	// SortRadix is LSD radix sort over (degree, vertex) pairs.
	SortRadix
	// SortQuick is comparison quicksort.
	SortQuick
)

// sortBatch orders batch by ascending residual degree using alg.
// Counting and quick sorts are stable in (degree, position); radix sorts
// by (degree, vertex ID) — all three yield valid §V-B orders.
func sortBatch(batch []uint32, deg []int32, maxDeg int, alg SortAlg) {
	switch alg {
	case SortRadix:
		keys := make([]uint64, len(batch))
		for i, v := range batch {
			keys[i] = uint64(uint32(deg[v]))<<32 | uint64(v)
		}
		sortutil.RadixSortPairs(keys, batch)
	case SortQuick:
		sortutil.QuickSortByKey(batch, func(v uint32) int { return int(deg[v]) })
	default:
		sortutil.CountingSortByKey(batch, maxDeg+1, func(v uint32) int { return int(deg[v]) })
	}
}

const unsetRank = ^uint32(0)

// ADG computes the partial 2(1+ε)-approximate degeneracy ordering of
// Algorithm 1 (or its ADG-M / ADG-O variants per opts). The returned
// Ordering carries the per-iteration partitions R(1..ρ) needed by DEC-ADG
// and, for ADG-O, the fused JP predecessor counts.
func ADG(g *graph.Graph, opts ADGOptions) *Ordering {
	o, _ := ADGContext(context.Background(), g, opts)
	return o
}

// ADGContext is ADG with cooperative cancellation: ctx is checked once
// per peeling iteration (ADG performs O(log n / log(1+ε)) of them, Lemma
// 1), so a cancelled caller gets control back within one round. On
// cancellation the partial ordering is discarded and ctx.Err() returned.
//
// One peeling loop serves all four variants. It keeps the vertices in
// Algorithm 6's array [R(1) … R(i) | U]: each iteration moves the batch
// R(i+1) to the front of the window U with one stable partition, then
// runs UPDATE on the batch and the survivors behind it. Plain ADG and
// ADG-M give every vertex of a batch its iteration as the key, so the
// batches are the Partitions; ADG-O and ADG-M-O sort each batch by
// residual degree and give every vertex its position in the array
// (§V-B), with JP's in-degrees fused into UPDATE (§V-C).
func ADGContext(ctx context.Context, g *graph.Graph, opts ADGOptions) (*Ordering, error) {
	if opts.Epsilon < 0 {
		opts.Epsilon = 0
	}
	n := g.NumVertices()
	p := opts.Procs
	if p <= 0 {
		p = par.DefaultProcs()
	}
	// deg[v] is v's residual degree; key[v] is v's removal key,
	// unsetRank while v is active.
	deg := make([]int32, n)
	key := make([]uint32, n)
	arr := make([]uint32, n)
	maxDeg := 0
	for v := range key {
		deg[v] = int32(g.Degree(uint32(v)))
		key[v] = unsetRank
		arr[v] = uint32(v)
		maxDeg = max(maxDeg, int(deg[v]))
	}
	var pred []int32
	if opts.Sorted {
		pred = make([]int32, n)
	}
	up := newUpdater(g, p, opts.CREW)
	sp := splitter{p: p, scratch: make([]uint32, n), cnt: make([]int, 2*p)}
	// §V-F: optionally maintain the active degree sum incrementally.
	cacheSum := opts.CacheDegreeSums && !opts.Median
	var sum int64
	if cacheSum {
		sum = par.ReduceInt64(p, n, func(i int) int64 { return int64(deg[i]) })
	}
	var partitions [][]uint32
	removed, iter := 0, 0
	for removed < n {
		if err := par.CtxErr(ctx); err != nil {
			return nil, err
		}
		win := arr[removed:]
		var k int
		switch {
		case opts.Median && opts.Sorted:
			// ADG-M-O sorts the whole window by degree and takes its
			// lower half, so the survivors stay sorted too.
			sortutil.CountingSortByKey(win, maxDeg+1, func(v uint32) int { return int(deg[v]) })
			k = (len(win) + 1) / 2
		case opts.Median:
			k = sp.median(win, deg)
		default:
			if !cacheSum {
				sum = par.ReduceInt64(p, len(win), func(i int) int64 { return int64(deg[win[i]]) })
			}
			k = sp.split(win, deg, firstAbove(threshold(opts.Epsilon, sum, len(win), opts.Sorted)), 0)
		}
		batch := win[:k:k]
		lo, hi := uint32(iter), uint32(iter+1)
		if opts.Sorted {
			if !opts.Median {
				sortBatch(batch, deg, maxDeg, opts.Sort)
			}
			lo, hi = uint32(removed), uint32(removed+k)
			par.For(p, k, func(i int) { key[batch[i]] = lo + uint32(i) })
		} else {
			par.For(p, k, func(i int) { key[batch[i]] = lo })
			partitions = append(partitions, batch)
		}
		if cacheSum {
			sum -= par.ReduceInt64(p, k, func(i int) int64 { return int64(deg[batch[i]]) })
		}
		// UPDATE. With cached sums, the cut edges leave the survivors'
		// side of the sum too.
		cut := up.update(key, lo, hi, batch, win[k:], deg, pred)
		if cacheSum {
			sum -= cut
		}
		removed += k
		iter++
	}
	name := "ADG"
	if opts.Median {
		name += "-M"
	}
	if opts.Sorted {
		name += "-O"
	}
	o := NewFromRanks(name, key, opts.Seed)
	o.Partitions = partitions
	o.Iterations = iter
	o.PredCount = pred
	return o, nil
}

// threshold is Algorithm 1's bound (1+ε)·δ̂ for a window of m vertices
// with degree sum sum. Plain ADG and ADG-O round it in different orders,
// and at ε = 0.01/12 the two disagree on some integer degrees, so each
// keeps its own rounding: orderings must not move.
func threshold(eps float64, sum int64, m int, sorted bool) float64 {
	if sorted {
		return (1 + eps) * float64(sum) / float64(m)
	}
	return (1 + eps) * (float64(sum) / float64(m))
}

// firstAbove returns the least integer degree above t: for an integer
// degree d, d ≤ t exactly when d < firstAbove(t).
func firstAbove(t float64) int32 {
	if t >= math.MaxInt32-1 {
		return math.MaxInt32
	}
	return int32(t) + 1
}

// splitter moves each iteration's batch to the front of its window with
// one stable partition, built like par.Pack: per-block counts, an
// exclusive scan over them, and a scatter into one scratch array that is
// then copied back. Its buffers are allocated once per ADG call.
type splitter struct {
	p       int
	scratch []uint32
	degs    []int32 // ADG-M's window degrees, for the median
	// cnt[2w] and cnt[2w+1] count block w's vertices of degree below
	// and equal to split's bound, then hold their exclusive scans.
	cnt []int
}

// median is ADG-M's selection (§V-D): the batch is the vertices below
// the window's lower median degree, then the first median-degree ones
// in window order, half the window in all.
func (sp *splitter) median(win []uint32, deg []int32) int {
	if sp.degs == nil { // the first window is the largest
		sp.degs = make([]int32, len(win))
	}
	degs := sp.degs[:len(win)]
	par.For(sp.p, len(win), func(i int) { degs[i] = deg[win[i]] })
	return sp.split(win, deg, sortutil.MedianOfInt32(degs), (len(win)+1)/2)
}

// split stably reorders win into [degree below bound | the first
// vertices of degree bound | the rest] and returns the length of the
// batch, the first two parts. Vertices of degree bound join in window
// order until the batch holds want vertices; with want = 0 the batch is
// the vertices below bound. Both passes see the same blocks, because
// par.ForWorkers blocks a range as a pure function of (p, len(win)).
func (sp *splitter) split(win []uint32, deg []int32, bound int32, want int) int {
	m, cnt, scratch := len(win), sp.cnt, sp.scratch
	clear(cnt)
	par.ForWorkers(sp.p, m, func(w, lo, hi int) {
		var below, at int
		for _, v := range win[lo:hi] {
			switch d := deg[v]; {
			case d < bound:
				below++
			case d == bound:
				at++
			}
		}
		cnt[2*w], cnt[2*w+1] = below, at
	})
	var below, at int
	for w := 0; w < len(cnt); w += 2 {
		b, a := cnt[w], cnt[w+1]
		cnt[w], cnt[w+1] = below, at
		below += b
		at += a
	}
	take := min(max(want-below, 0), at)
	k := below + take
	par.ForWorkers(sp.p, m, func(w, lo, hi int) {
		i0, e := cnt[2*w], cnt[2*w+1]
		// The rest placed before this block: its vertices minus those
		// below bound and the taken ones at bound.
		ir := k + lo - i0 - min(e, take)
		for _, v := range win[lo:hi] {
			switch d := deg[v]; {
			case d < bound:
				scratch[i0] = v
				i0++
				continue
			case d == bound:
				e++
				if e <= take {
					scratch[below+e-1] = v
					continue
				}
			}
			scratch[ir] = v
			ir++
		}
	})
	copy(win, scratch[:m])
	return k
}

// pullPerPush is the UPDATE direction constant. A pushed arc pays a
// LOCK-prefixed decrement on a survivor's degree, a pulled arc a plain
// load and compare. On a 2-vCPU x86 VM at p=2, a pull-only UPDATE made
// ADG at ε 0.01/12 on grid:300:300 1.5× slower and a push-only one
// made ADG-O on kron:15 1.5× slower, while constants from 8 to 32 timed
// alike within the noise on kron:15, kron:17 and grid:300:300.
const pullPerPush = 8

// pullCheaper is the UPDATE direction rule: pull (Algorithm 2) when
// the survivors' volume is at most pullPerPush times the batch's, push
// (Algorithm 1) otherwise. A pull iteration thus reads at most
// pullPerPush times the arcs a push would, which keeps ADG's O(m) work
// bound.
func pullCheaper(volSurvivors, volBatch int64) bool {
	return volSurvivors <= pullPerPush*volBatch
}

// updater runs the UPDATE step of ADG and ADG-O, one call per
// iteration. Unless crew forces pull, it tracks vol(active), the arcs
// in the active vertices' lists, so choosing a direction costs
// O(min(|batch|, |survivors|)).
type updater struct {
	g      *graph.Graph
	p      int
	crew   bool    // always pull: nothing is written concurrently
	vol    int64   // vol(active)
	prefix []int64 // the edge-balanced blocks' weight prefix, reused by every pass
}

func newUpdater(g *graph.Graph, p int, crew bool) *updater {
	up := &updater{g: g, p: p, crew: crew, vol: g.NumArcs()}
	if p > 1 {
		up.prefix = make([]int64, g.NumVertices()+1)
	}
	return up
}

// update subtracts from each survivor's residual degree its neighbors
// in the batch just removed, and returns the cut, the number of
// batch–survivor edges (§V-F).
//
// r holds the removal key of every vertex: unsetRank while active, a
// value in [lo, hi) for the batch, and a smaller one for vertices
// removed before. If pred is non-nil (ADG-O), pred[v] is set to the
// number of v's neighbors with a larger key than v's, its JP DAG
// in-degree (§V-C). The direction is pullCheaper's choice, or pull
// when crew is set; both compute the same degrees.
func (up *updater) update(r []uint32, lo, hi uint32, batch, survivors []uint32, deg, pred []int32) int64 {
	if !up.crew {
		// vol(active) = vol(batch) + vol(survivors), so summing the
		// shorter list gives both.
		var volBatch, volSurvivors int64
		if len(batch) <= len(survivors) {
			volBatch = up.volume(batch)
			volSurvivors = up.vol - volBatch
		} else {
			volSurvivors = up.volume(survivors)
			volBatch = up.vol - volSurvivors
		}
		up.vol = volSurvivors
		if !pullCheaper(volSurvivors, volBatch) {
			return up.push(r, batch, deg, pred)
		}
	}
	return up.pull(r, lo, hi, batch, survivors, deg, pred)
}

// volume is vol(vs), the total degree of vs.
func (up *updater) volume(vs []uint32) int64 {
	g := up.g
	return par.ReduceInt64(up.p, len(vs), func(i int) int64 { return int64(g.Degree(vs[i])) })
}

// push is Algorithm 1's UPDATE: each batch vertex decrements its active
// neighbors' degrees, and counts its neighbors with larger keys.
func (up *updater) push(r, batch []uint32, deg, pred []int32) int64 {
	g := up.g
	var cut int64
	up.forEachBlock(batch, func(a, b int) {
		var blockCut int64
		for _, v := range batch[a:b] {
			rv := r[v]
			var above, active int32
			for _, w := range g.Neighbors(v) {
				rw := r[w]
				if rw > rv {
					above++
				}
				if rw == unsetRank {
					par.DecrementAndFetch(&deg[w])
					active++
				}
			}
			if pred != nil {
				pred[v] = above
			}
			blockCut += int64(active)
		}
		par.FetchAdd64(&cut, blockCut)
	})
	return cut
}

// pull is Algorithm 2's UPDATE: each survivor recounts its batch
// neighbors and writes only its own degree. For ADG-O, each batch
// vertex then counts its neighbors with larger keys.
func (up *updater) pull(r []uint32, lo, hi uint32, batch, survivors []uint32, deg, pred []int32) int64 {
	g := up.g
	width := hi - lo
	var cut int64
	up.forEachBlock(survivors, func(a, b int) {
		var blockCut int64
		for _, u := range survivors[a:b] {
			var c int32
			if width == 1 {
				// Plain ADG's batch shares one key. On kron:13 at p=2
				// the equality test timed 15% faster than the range
				// test below.
				for _, w := range g.Neighbors(u) {
					if r[w] == lo {
						c++
					}
				}
			} else {
				for _, w := range g.Neighbors(u) {
					if r[w]-lo < width {
						c++
					}
				}
			}
			deg[u] -= c
			blockCut += int64(c)
		}
		par.FetchAdd64(&cut, blockCut)
	})
	if pred != nil {
		up.forEachBlock(batch, func(a, b int) {
			for _, v := range batch[a:b] {
				rv := r[v]
				var above int32
				for _, w := range g.Neighbors(v) {
					if r[w] > rv {
						above++
					}
				}
				pred[v] = above
			}
		})
	}
	return cut
}

// forEachBlock runs body over edge-balanced blocks of vs: every pass of
// update scans the whole adjacency list of each vertex it visits.
func (up *updater) forEachBlock(vs []uint32, body func(lo, hi int)) {
	g := up.g
	par.ForWorkersWeightedBy(up.p, len(vs), up.prefix, func(i int) int64 {
		return int64(g.Degree(vs[i]))
	}, func(_, lo, hi int) { body(lo, hi) })
}

// TheoreticalIterationBound returns the upper bound on ADG iterations from
// Lemma 1: ⌈log n / log(1+ε)⌉ + 1 (infinite for ε = 0).
func TheoreticalIterationBound(n int, eps float64) int {
	if n <= 1 {
		return 1
	}
	if eps <= 0 {
		return n
	}
	return int(math.Ceil(math.Log(float64(n))/math.Log1p(eps))) + 1
}

// ApproxFactorBound returns the guaranteed partial approximation factor:
// 2(1+ε) for ADG/ADG-O (Lemma 4) and 4 for the median variants (Lemma 15).
func ApproxFactorBound(opts ADGOptions) float64 {
	if opts.Median {
		return 4
	}
	return 2 * (1 + opts.Epsilon)
}

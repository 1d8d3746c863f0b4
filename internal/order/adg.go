package order

import (
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sortutil"
	"repro/internal/xrand"
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
	// Sorted selects ADG-O (Algorithm 6, §V-A/B/C): batches are kept in
	// one contiguous [R(1) … R(i) | U] array, each batch is counting-
	// sorted by residual degree into an explicit total order, and the JP
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
func ADGContext(ctx context.Context, g *graph.Graph, opts ADGOptions) (*Ordering, error) {
	if opts.Epsilon < 0 {
		opts.Epsilon = 0
	}
	if opts.Sorted {
		return adgSorted(ctx, g, opts)
	}
	return adgPlain(ctx, g, opts)
}

// adgPlain is Algorithm 1 (and ADG-M): vertices removed in the same
// iteration share a rank; ties are broken by the random permutation.
func adgPlain(ctx context.Context, g *graph.Graph, opts ADGOptions) (*Ordering, error) {
	n := g.NumVertices()
	p := opts.Procs
	deg := g.Degrees()
	rank := make([]uint32, n)
	for v := range rank {
		rank[v] = unsetRank
	}
	active := make([]uint32, n)
	for i := range active {
		active[i] = uint32(i)
	}
	var partitions [][]uint32
	iter := uint32(0)
	up := newUpdater(g, p, opts.CREW)
	// §V-F: optionally maintain the active degree sum incrementally.
	var cachedSum int64
	if opts.CacheDegreeSums && !opts.Median {
		cachedSum = par.ReduceInt64(p, n, func(i int) int64 { return int64(deg[i]) })
	}
	for len(active) > 0 {
		if err := par.CtxErr(ctx); err != nil {
			return nil, err
		}
		var batch []uint32
		if opts.CacheDegreeSums && !opts.Median {
			batch = selectBatchWithSum(active, deg, opts, p, cachedSum)
			// Subtract the removed batch's residual degrees now; the cut
			// edges into survivors are subtracted during UPDATE below.
			cachedSum -= par.ReduceInt64(p, len(batch), func(i int) int64 {
				return int64(deg[batch[i]])
			})
		} else {
			batch = selectBatch(active, deg, opts, p)
		}
		// Assign the iteration rank.
		par.For(p, len(batch), func(i int) { rank[batch[i]] = iter })
		partitions = append(partitions, batch)
		// Survivors.
		keepIdx := par.Pack(p, len(active), func(i int) bool {
			return rank[active[i]] == unsetRank
		})
		next := make([]uint32, len(keepIdx))
		par.For(p, len(keepIdx), func(i int) { next[i] = active[keepIdx[i]] })
		// UPDATE. When caching degree sums (§V-F), the cut edges
		// removed from the survivors' side are subtracted too.
		cut := up.update(rank, iter, iter+1, batch, next, deg, nil)
		if opts.CacheDegreeSums && !opts.Median {
			cachedSum -= cut
		}
		active = next
		iter++
	}
	name := "ADG"
	if opts.Median {
		name = "ADG-M"
	}
	o := NewFromRanks(name, rank, opts.Seed)
	o.Partitions = partitions
	o.Iterations = int(iter)
	return o, nil
}

// selectBatch returns the vertices of active to remove this iteration:
// degree ≤ (1+ε)·δ̂ for ADG, or the lower half by degree for ADG-M.
func selectBatch(active []uint32, deg []int32, opts ADGOptions, p int) []uint32 {
	if opts.Median {
		degs := make([]int32, len(active))
		par.For(p, len(active), func(i int) { degs[i] = deg[active[i]] })
		med := sortutil.MedianOfInt32(degs)
		half := (len(active) + 1) / 2
		lessIdx := par.Pack(p, len(active), func(i int) bool { return degs[i] < med })
		batch := make([]uint32, 0, half)
		for _, i := range lessIdx {
			batch = append(batch, active[i])
		}
		if len(batch) < half {
			take := half - len(batch)
			for i := range active {
				if degs[i] == med {
					batch = append(batch, active[i])
					take--
					if take == 0 {
						break
					}
				}
			}
		}
		return batch
	}
	sum := par.ReduceInt64(p, len(active), func(i int) int64 {
		return int64(deg[active[i]])
	})
	return thresholdBatch(active, deg, opts.Epsilon, p, sum)
}

// selectBatchWithSum is the §V-F path: the degree sum is supplied from
// the incrementally maintained cache instead of a fresh Reduce.
func selectBatchWithSum(active []uint32, deg []int32, opts ADGOptions, p int, sum int64) []uint32 {
	return thresholdBatch(active, deg, opts.Epsilon, p, sum)
}

func thresholdBatch(active []uint32, deg []int32, eps float64, p int, sum int64) []uint32 {
	avg := float64(sum) / float64(len(active))
	threshold := (1 + eps) * avg
	idx := par.Pack(p, len(active), func(i int) bool {
		return float64(deg[active[i]]) <= threshold
	})
	batch := make([]uint32, len(idx))
	par.For(p, len(idx), func(i int) { batch[i] = active[idx[i]] })
	return batch
}

// adgSorted is ADG-O (Algorithm 6): the contiguous [R … | U] array with
// in-batch counting sort by residual degree, explicit total priorities, and
// the fused JP in-degree computation in UPDATEandPRIORITIZE.
func adgSorted(ctx context.Context, g *graph.Graph, opts ADGOptions) (*Ordering, error) {
	n := g.NumVertices()
	p := opts.Procs
	deg := g.Degrees()
	maxDeg := g.MaxDegree()
	pos := make([]uint32, n) // final total-order position; unsetRank = active
	for v := range pos {
		pos[v] = unsetRank
	}
	arr := make([]uint32, n) // the combined [R(1) … R(i) | U] array
	for i := range arr {
		arr[i] = uint32(i)
	}
	predCount := make([]int32, n)
	up := newUpdater(g, p, opts.CREW)
	removed := 0
	iter := 0
	for removed < n {
		if err := par.CtxErr(ctx); err != nil {
			return nil, err
		}
		active := arr[removed:]
		var batch []uint32
		if opts.Median {
			// ADG-M-O: counting sort the whole active window by degree,
			// take the lower half.
			sortutil.CountingSortByKey(active, maxDeg+1, func(v uint32) int { return int(deg[v]) })
			half := (len(active) + 1) / 2
			batch = active[:half]
		} else {
			sum := par.ReduceInt64(p, len(active), func(i int) int64 {
				return int64(deg[active[i]])
			})
			threshold := (1 + opts.Epsilon) * float64(sum) / float64(len(active))
			// PARTITION (§V-A): stable split into [R | U\R] in O(|U|).
			batch = partitionInPlace(active, func(v uint32) bool {
				return float64(deg[v]) <= threshold
			})
			// SORT (§V-B): order R by increasing residual degree with the
			// configured integer sort.
			sortBatch(batch, deg, maxDeg, opts.Sort)
		}
		// Explicit total priorities ℓ+i (§V-B).
		base := uint32(removed)
		par.For(p, len(batch), func(i int) {
			pos[batch[i]] = base + uint32(i)
		})
		// UPDATEandPRIORITIZE (§V-C): the update also derives each batch
		// vertex's JP DAG in-degree.
		up.update(pos, base, base+uint32(len(batch)), batch, arr[removed+len(batch):], deg, predCount)
		removed += len(batch)
		iter++
	}
	name := "ADG-O"
	if opts.Median {
		name = "ADG-M-O"
	}
	perm := xrand.New(opts.Seed).Perm(n, nil)
	keys := make([]uint64, n)
	par.For(p, n, func(v int) {
		keys[v] = uint64(pos[v])<<32 | uint64(perm[v])
	})
	// Rank here is the fine-grained total position; iteration partitions
	// (needed only by DEC-ADG) come from the unsorted ADG variant.
	return &Ordering{
		Name:       name,
		Keys:       keys,
		Rank:       pos,
		Iterations: iter,
		PredCount:  predCount,
	}, nil
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
	g    *graph.Graph
	p    int
	crew bool  // always pull: nothing is written concurrently
	vol  int64 // vol(active)
}

func newUpdater(g *graph.Graph, p int, crew bool) *updater {
	return &updater{g: g, p: p, crew: crew, vol: g.NumArcs()}
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
	forEachBlock(g, up.p, batch, func(a, b int) {
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
	forEachBlock(g, up.p, survivors, func(a, b int) {
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
		forEachBlock(g, up.p, batch, func(a, b int) {
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
func forEachBlock(g *graph.Graph, p int, vs []uint32, body func(lo, hi int)) {
	par.ForWorkersWeightedBy(p, len(vs), nil, func(i int) int64 {
		return int64(g.Degree(vs[i]))
	}, func(_, lo, hi int) { body(lo, hi) })
}

// partitionInPlace stably reorders a so that elements satisfying keep come
// first and returns the prefix. O(len(a)) time and scratch.
func partitionInPlace(a []uint32, keep func(v uint32) bool) []uint32 {
	tail := make([]uint32, 0, len(a))
	w := 0
	for _, v := range a {
		if keep(v) {
			a[w] = v
			w++
		} else {
			tail = append(tail, v)
		}
	}
	copy(a[w:], tail)
	return a[:w]
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

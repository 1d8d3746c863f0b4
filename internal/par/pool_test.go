package par

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMinInt64NoNegationOverflow is the regression test for the old
// implementation, which computed MinInt64 as -MaxInt64(-def, -f): both
// negations overflow for math.MinInt64, silently corrupting the result.
func TestMinInt64NoNegationOverflow(t *testing.T) {
	vals := []int64{5, math.MinInt64, 7}
	for _, p := range []int{1, 2, 4} {
		got := MinInt64(p, len(vals), math.MaxInt64, func(i int) int64 { return vals[i] })
		if got != math.MinInt64 {
			t.Fatalf("p=%d: min=%d want math.MinInt64", p, got)
		}
	}
	if got := MinInt64(4, 0, math.MinInt64, nil); got != math.MinInt64 {
		t.Fatalf("empty min=%d want math.MinInt64 default", got)
	}
	// Large-n parallel path (above the sequential grain).
	n := 100000
	got := MinInt64(4, n, math.MaxInt64, func(i int) int64 {
		if i == 99999 {
			return math.MinInt64
		}
		return int64(i)
	})
	if got != math.MinInt64 {
		t.Fatalf("parallel min=%d want math.MinInt64", got)
	}
}

func TestMaxInt64LargeN(t *testing.T) {
	n := 100000
	got := MaxInt64(4, n, math.MinInt64, func(i int) int64 { return int64(i % 777) })
	if got != 776 {
		t.Fatalf("max=%d want 776", got)
	}
}

// TestPoolStress exercises the satellite requirement: concurrent
// ForBlocks/Pack/PrefixSum from many goroutines sharing the default
// pool, with sizes above the sequential grain so real forking happens.
func TestPoolStress(t *testing.T) {
	const goroutines = 8
	const rounds = 20
	n := 50000
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(i % 13)
	}
	var wantSum int64
	for _, v := range src {
		wantSum += int64(v)
	}
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (gi + r) % 3 {
				case 0:
					var covered int64
					ForBlocks(4, n, func(lo, hi int) {
						atomic.AddInt64(&covered, int64(hi-lo))
					})
					if covered != int64(n) {
						t.Errorf("ForBlocks covered %d of %d", covered, n)
						return
					}
				case 1:
					out := Pack(4, n, func(i int) bool { return i%7 == 0 })
					if len(out) != (n+6)/7 {
						t.Errorf("Pack len=%d", len(out))
						return
					}
					for k := 1; k < len(out); k++ {
						if out[k-1] >= out[k] {
							t.Errorf("Pack not ascending at %d", k)
							return
						}
					}
				default:
					dst := make([]int64, n+1)
					if total := PrefixSumInt32(4, src, dst); total != wantSum {
						t.Errorf("PrefixSum total=%d want %d", total, wantSum)
						return
					}
					if dst[n/2] != dst[n/2-1]+int64(src[n/2-1]) {
						t.Errorf("PrefixSum midpoint inconsistent")
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
}

// TestNestedFork checks deadlock-freedom of the helping join: a loop
// body that itself forks into the same pool must complete even when all
// workers are busy with outer blocks.
func TestNestedFork(t *testing.T) {
	outer := 50000
	var total int64
	ForBlocks(4, outer, func(lo, hi int) {
		// Inner fork from inside a pool-executed block.
		s := ReduceInt64(4, 10000, func(i int) int64 { return 1 })
		atomic.AddInt64(&total, s)
	})
	if total < 10000 {
		t.Fatalf("nested forks did not run (total=%d)", total)
	}
}

func TestNewPoolIndependent(t *testing.T) {
	pl := NewPool(3)
	defer pl.Close()
	if pl.Procs() != 3 {
		t.Fatalf("procs=%d", pl.Procs())
	}
	n := 100000
	var covered int64
	pl.ForBlocks(3, n, func(lo, hi int) { atomic.AddInt64(&covered, int64(hi-lo)) })
	if covered != int64(n) {
		t.Fatalf("covered %d", covered)
	}
	s := pl.Stats()
	if s.Forks == 0 {
		t.Fatalf("pool never forked: %+v", s)
	}
}

func TestSeqCutoffCounted(t *testing.T) {
	pl := NewPool(2)
	defer pl.Close()
	pl.For(2, 100, func(i int) {}) // far below the grain, p > 1
	if s := pl.Stats(); s.SeqCutoffHits != 1 || s.Forks != 0 {
		t.Fatalf("stats after tiny loop: %+v", s)
	}
	pl.For(2, 100000, func(i int) {}) // far above the grain
	if s := pl.Stats(); s.Forks != 1 {
		t.Fatalf("stats after large loop: %+v", s)
	}
}

// offsetsFor builds a CSR-style monotone prefix array from per-item
// weights.
func offsetsFor(weights []int64) []int64 {
	out := make([]int64, len(weights)+1)
	var run int64
	for i, w := range weights {
		out[i] = run
		run += w
	}
	out[len(weights)] = run
	return out
}

func TestForBlocksWeightedCoverageAndBalance(t *testing.T) {
	// Heavy skew: one huge vertex, many tiny ones.
	n := 10000
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = 1
	}
	weights[0] = 1 << 20
	offsets := offsetsFor(weights)
	hit := make([]int32, n)
	var blocks int64
	ForBlocksWeighted(4, offsets, func(lo, hi int) {
		atomic.AddInt64(&blocks, 1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hit[i], 1)
		}
	})
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	if blocks < 2 {
		t.Fatalf("skewed weighted loop did not fork (%d blocks)", blocks)
	}
	// The heavy vertex must be alone-ish: its block should not also get
	// a large share of the remaining items (edge balance, not item count).
	ForBlocksWeighted(4, offsets, func(lo, hi int) {
		if lo == 0 && hi > n/2 {
			t.Errorf("heavy block [0,%d) absorbed most items; not weight-balanced", hi)
		}
	})
}

func TestForWorkersWeightedByMatchesSequential(t *testing.T) {
	n := 30000
	weight := func(i int) int64 { return int64(i % 97) }
	var wantSum int64
	for i := 0; i < n; i++ {
		wantSum += weight(i)
	}
	for _, p := range []int{1, 2, 4, 8} {
		var sum int64
		seen := make([]int32, p)
		ForWorkersWeightedBy(p, n, nil, weight, func(w, lo, hi int) {
			if w < 0 || w >= p {
				t.Errorf("worker %d out of range", w)
				return
			}
			atomic.AddInt32(&seen[w], 1)
			var s int64
			for i := lo; i < hi; i++ {
				s += weight(i)
			}
			atomic.AddInt64(&sum, s)
		})
		if sum != wantSum {
			t.Fatalf("p=%d: sum=%d want %d", p, sum, wantSum)
		}
		for w, c := range seen {
			if c > 1 {
				t.Fatalf("p=%d: worker %d used %d times", p, w, c)
			}
		}
	}
}

func TestForWeightedByZeroWeights(t *testing.T) {
	// All-zero weights must still cover every index exactly once (the
	// planner adds an implicit +1 per item, so blocks stay non-empty).
	n := 20000
	hit := make([]int32, n)
	ForWeightedBy(4, n, func(i int) int64 { return 0 }, func(i int) {
		atomic.AddInt32(&hit[i], 1)
	})
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestPackDeterministicAcrossProcs(t *testing.T) {
	n := 60000 // above the sequential grain, so p > 1 forks
	var want []uint32
	for i := 0; i < n; i++ {
		if i%3 == 0 || i%11 == 0 {
			want = append(want, uint32(i))
		}
	}
	for _, p := range []int{1, 2, 8} {
		var calls atomic.Int64
		got := Pack(p, n, func(i int) bool {
			calls.Add(1)
			return i%3 == 0 || i%11 == 0
		})
		if c := calls.Load(); c != int64(n) {
			t.Errorf("p=%d: keep ran %d times for %d indices", p, c, n)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("p=%d: Pack differs from the sequential filter", p)
		}
	}
}

func TestPrefixSumDeterministicAcrossProcs(t *testing.T) {
	n := 60000
	src := make([]int32, n)
	for i := range src {
		src[i] = int32((i * 2654435761) % 50)
	}
	base := make([]int64, n+1)
	PrefixSumInt32(1, src, base)
	for _, p := range []int{2, 4, 8} {
		dst := make([]int64, n+1)
		PrefixSumInt32(p, src, dst)
		for i := range dst {
			if dst[i] != base[i] {
				t.Fatalf("p=%d: dst[%d]=%d want %d", p, i, dst[i], base[i])
			}
		}
	}
}

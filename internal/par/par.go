// Package par implements the work–depth style parallel primitives the paper
// assumes in §II-C/§II-D: parallel For, Reduce, Count, PrefixSum, Filter and
// the DecrementAndFetch/Join atomics used by ADG and Jones–Plassmann.
//
// Execution is backed by a persistent fork-join Pool: long-lived workers
// park on a task queue and run blocks without per-call goroutine creation,
// which is what makes the many small frontier/batch rounds of JP and ADG
// cheap (per-call spawn latency is exactly the scalability killer on small
// frontiers). The package-level functions below are thin wrappers over the
// process-wide Default pool; pool-scoped variants live on Pool.
//
// Parallelism is expressed over an explicit worker count p so that the
// scaling experiments (Fig. 2) can sweep p independently of GOMAXPROCS and
// so that p = 1 gives a deterministic sequential execution for tests.
// Chunking is either static contiguous blocks (matching the CSR layout's
// locality, §V-A) or edge-balanced weighted blocks (ForBlocksWeighted) for
// skew-heavy degree distributions. Regions whose estimated work falls
// below a calibrated grain run inline on the caller (adaptive sequential
// cutoff), so tiny loops cost a function call, not a fork.
package par

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"
)

// CtxErr is the cooperative-cancellation check used at the top of the
// JP/ADG/DEC round loops. Beyond ctx.Err() it also compares the
// context's deadline against the wall clock directly: ctx.Err() flips
// only after the context's timer goroutine has run, and on GOMAXPROCS=1
// a compute-bound round loop can keep that goroutine off the processor
// for tens of milliseconds (until async preemption), making deadlines
// land late or not at all. Reading the deadline needs no scheduling, so
// expiry is observed at the very next round boundary.
func CtxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// DefaultProcs returns the worker count used when a caller passes p <= 0:
// the current GOMAXPROCS setting.
func DefaultProcs() int {
	return runtime.GOMAXPROCS(0)
}

// clampProcs normalizes a requested worker count against the problem size.
func clampProcs(p, n int) int {
	if p <= 0 {
		p = DefaultProcs()
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// For runs body(i) for every i in [0, n) using at most p workers.
// Iterations are distributed in contiguous blocks. For n == 0 it returns
// immediately. p <= 0 selects DefaultProcs().
func For(p, n int, body func(i int)) {
	Default().For(p, n, body)
}

// ForBlocks partitions [0, n) into at most p contiguous blocks and runs
// body(lo, hi) on each block in parallel. This is the primitive all other
// loops build on; use it directly when per-worker state (scratch buffers,
// RNG streams) is needed.
func ForBlocks(p, n int, body func(lo, hi int)) {
	Default().ForBlocks(p, n, body)
}

// ForWorkers runs body(worker, lo, hi) like ForBlocks but also passes the
// block index in [0, p'), where p' <= p is the number of blocks actually
// forked (1 below the sequential grain). Useful for indexing per-worker
// scratch space; two blocks never share a worker index.
func ForWorkers(p, n int, body func(worker, lo, hi int)) {
	Default().ForWorkers(p, n, body)
}

// ForBlocksWeighted partitions the CSR vertex range [0, len(offsets)-1)
// into at most p blocks of roughly equal arc count by binary search on
// the offset array, and runs body(lo, hi) on each block. Use instead of
// ForBlocks whenever the per-vertex cost is proportional to degree.
func ForBlocksWeighted(p int, offsets []int64, body func(lo, hi int)) {
	Default().ForBlocksWeighted(p, offsets, body)
}

// ForWeightedBy runs body(i) over [0, n) with blocks balanced by the
// per-item weights (typically deg(items[i]) for a frontier or batch).
func ForWeightedBy(p, n int, weight func(i int) int64, body func(i int)) {
	Default().ForWeightedBy(p, n, weight, body)
}

// ForWorkersWeightedBy is the per-worker form of ForWeightedBy; scratch,
// when non-nil, provides the weight-prefix buffer (len >= n+1) so
// per-round callers can reuse it.
func ForWorkersWeightedBy(p, n int, scratch []int64, weight func(i int) int64, body func(worker, lo, hi int)) {
	Default().ForWorkersWeightedBy(p, n, scratch, weight, body)
}

// ReduceInt64 computes the sum over i in [0, n) of f(i) with p workers in
// O(n/p + log p) time — the paper's Reduce primitive (§II-D).
func ReduceInt64(p, n int, f func(i int) int64) int64 {
	return Default().ReduceInt64(p, n, f)
}

// Count returns |{i in [0,n) : pred(i)}| — the paper's Count primitive,
// implemented as a Reduce with the indicator operator (§II-D).
func Count(p, n int, pred func(i int) bool) int {
	return int(ReduceInt64(p, n, func(i int) int64 {
		if pred(i) {
			return 1
		}
		return 0
	}))
}

// MaxInt64 returns the maximum of f(i) over [0, n); it returns def for n==0.
func MaxInt64(p, n int, def int64, f func(i int) int64) int64 {
	return Default().MaxInt64(p, n, def, f)
}

// MinInt64 returns the minimum of f(i) over [0, n); it returns def for
// n==0. Implemented directly (not as -Max of -f, whose negation overflows
// for math.MinInt64 inputs or defaults).
func MinInt64(p, n int, def int64, f func(i int) int64) int64 {
	return Default().MinInt64(p, n, def, f)
}

// PrefixSumInt32 computes the exclusive prefix sum of src into dst and
// returns the total. dst must have length len(src)+1; dst[0] = 0 and
// dst[len(src)] = total. Two-pass blocked scan: O(n) work, O(n/p + p) time.
func PrefixSumInt32(p int, src []int32, dst []int64) int64 {
	return Default().PrefixSumInt32(p, src, dst)
}

// Pack writes the indices i in [0, n) with keep(i) into a fresh slice,
// preserving order: the Filter/Pack primitive. It calls keep exactly once
// per index, so a predicate that scans an adjacency list scans it once.
func Pack(p, n int, keep func(i int) bool) []uint32 {
	return Default().Pack(p, n, keep)
}

// DecrementAndFetch atomically decrements *addr and returns the new value —
// the DAF primitive from §II-D used by ADG's UPDATE and by JP's Join.
func DecrementAndFetch(addr *int32) int32 {
	return atomic.AddInt32(addr, -1)
}

// Join decrements *addr and reports whether the caller is the last to
// arrive (the counter reached zero). This mirrors the Join synchronization
// primitive of Hasenplaugh et al. used in JPColor. shared selects the
// atomic decrement; a caller that is the only goroutine touching the
// counters (a round that runs as one block) passes false and pays a
// plain decrement instead of a LOCK-prefixed one.
func Join(addr *int32, shared bool) bool {
	if shared {
		return atomic.AddInt32(addr, -1) == 0
	}
	*addr--
	return *addr == 0
}

// FetchAdd64 atomically adds delta to *addr and returns the new value.
func FetchAdd64(addr *int64, delta int64) int64 {
	return atomic.AddInt64(addr, delta)
}

package par

import (
	"sync"
	"sync/atomic"
)

// Scheduling constants. A fork-join region whose estimated work (items ×
// cost hint, or summed arc weight for the weighted variants) is below
// seqGrain runs inline on the calling goroutine: small JP frontiers and
// late ADG batches must not pay dispatch latency at all. Above the grain,
// the block count is additionally capped so every block carries at least
// minBlockWork units, keeping dispatch overhead sublinear in p.
const (
	seqGrain     = 4096
	minBlockWork = 2048
)

// PoolStats is a snapshot of a Pool's scheduling counters (monotonically
// increasing over the pool's lifetime; subtract two snapshots to scope a
// measurement). The harness records these per run and colorbench reports
// them, giving the same visibility into scheduler behavior that the
// paper's work/depth accounting gives into the algorithms.
type PoolStats struct {
	// Forks counts fork-join regions that actually forked (≥ 2 blocks).
	Forks int64
	// Dispatches counts blocks handed to parked pool workers.
	Dispatches int64
	// InlineBlocks counts blocks the forking goroutine ran itself (its
	// own leading block, plus overflow blocks when the queue was full).
	InlineBlocks int64
	// SeqCutoffHits counts calls that wanted parallelism (p > 1 after
	// clamping) but ran entirely inline because the estimated work was
	// below the sequential grain.
	SeqCutoffHits int64
}

// task is one block of a fork assigned to a worker.
type task struct {
	f      *fork
	worker int
	lo, hi int
}

// fork is the join state of one fork-join region. Instances are recycled
// through a sync.Pool so steady-state forking does not allocate.
type fork struct {
	body    func(worker, lo, hi int)
	pending int32
	done    chan struct{}
}

var forkCache = sync.Pool{New: func() interface{} {
	return &fork{done: make(chan struct{}, 1)}
}}

// finishOne retires one block and signals the join when it was the last.
func (f *fork) finishOne() {
	if atomic.AddInt32(&f.pending, -1) == 0 {
		f.done <- struct{}{}
	}
}

// Pool is a persistent fork-join scheduler: procs long-lived workers park
// on a shared task channel and execute blocks of fork-join regions without
// per-call goroutine creation. The forking goroutine always executes its
// leading block itself and, while joining, helps drain the task queue, so
// nested forks (a loop body that itself calls into the pool) cannot
// deadlock and a fork never waits on an idle queue.
//
// All Pool methods are safe for concurrent use from multiple goroutines;
// concurrent forks interleave over the same workers.
type Pool struct {
	procs int
	tasks chan task

	forks         int64
	dispatches    int64
	inlineBlocks  int64
	seqCutoffHits int64

	closeOnce sync.Once
}

// NewPool starts a pool with p parked workers (p <= 0: DefaultProcs()).
// Call Close to release the workers; the process-wide Default pool is
// never closed.
func NewPool(p int) *Pool {
	if p <= 0 {
		p = DefaultProcs()
	}
	pl := &Pool{
		procs: p,
		tasks: make(chan task, 8*p+64),
	}
	for i := 0; i < p; i++ {
		go pl.worker()
	}
	return pl
}

func (pl *Pool) worker() {
	for t := range pl.tasks {
		t.f.body(t.worker, t.lo, t.hi)
		t.f.finishOne()
	}
}

// Procs returns the number of parked workers.
func (pl *Pool) Procs() int { return pl.procs }

// Close releases the workers: they drain any queued blocks and exit.
// Forks already in flight still complete (their owners join on the done
// signal), but no new fork may be started after Close.
func (pl *Pool) Close() {
	pl.closeOnce.Do(func() { close(pl.tasks) })
}

// Stats returns a snapshot of the scheduling counters.
func (pl *Pool) Stats() PoolStats {
	return PoolStats{
		Forks:         atomic.LoadInt64(&pl.forks),
		Dispatches:    atomic.LoadInt64(&pl.dispatches),
		InlineBlocks:  atomic.LoadInt64(&pl.inlineBlocks),
		SeqCutoffHits: atomic.LoadInt64(&pl.seqCutoffHits),
	}
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide pool (created on first use with
// DefaultProcs() workers). The package-level For/Reduce/Scan free
// functions are thin wrappers over it, so every call site in the
// repository shares one persistent scheduler; Config.Procs sweeps reuse
// the same workers across runs.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// DefaultPoolStats snapshots the default pool's counters.
func DefaultPoolStats() PoolStats { return Default().Stats() }

// planUniform computes block boundaries for n items of uniform cost.
// It returns nil when the region should run inline: p clamps to 1, or n
// is under the sequential grain. Boundaries are a pure function of
// (p, n), so any blocking-dependent output (Pack order, per-block
// scratch) is independent of scheduling and timing.
func (pl *Pool) planUniform(p, n int) []int {
	p = clampProcs(p, n)
	if p == 1 {
		return nil
	}
	work := int64(n)
	if work < seqGrain {
		atomic.AddInt64(&pl.seqCutoffHits, 1)
		return nil
	}
	if maxB := int(work/minBlockWork) + 1; p > maxB {
		p = maxB
	}
	if p == 1 {
		return nil
	}
	chunk := (n + p - 1) / p
	bounds := make([]int, 1, p+1)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		bounds = append(bounds, hi)
	}
	return bounds
}

// planWeighted computes block boundaries over [0, n) so that every block
// carries roughly equal weight, where the weight of [lo, hi) is
// prefix[hi] - prefix[lo] + (hi - lo). prefix must be a monotone prefix-
// weight array of length n+1 (a CSR offset array qualifies directly).
// Boundaries are found by binary search on the strictly increasing
// function prefix[i] + i, the §V-A edge-balanced split. Returns nil when
// the region should run inline.
func (pl *Pool) planWeighted(p, n int, prefix []int64) []int {
	p = clampProcs(p, n)
	if p == 1 {
		return nil
	}
	base := prefix[0]
	work := prefix[n] - base + int64(n)
	if work < seqGrain {
		atomic.AddInt64(&pl.seqCutoffHits, 1)
		return nil
	}
	if maxB := int(work/minBlockWork) + 1; p > maxB {
		p = maxB
	}
	if p == 1 {
		return nil
	}
	bounds := make([]int, 1, p+1)
	target := (work + int64(p) - 1) / int64(p)
	prev := 0
	for b := 1; b < p; b++ {
		goal := int64(b) * target
		// Smallest i with prefix[i]-base+i >= goal, searched in (prev, n].
		lo, hi := prev+1, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if prefix[mid]-base+int64(mid) < goal {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= n {
			break
		}
		bounds = append(bounds, lo)
		prev = lo
	}
	bounds = append(bounds, n)
	return bounds
}

// runBounds executes body over the blocks delimited by bounds (len k+1,
// bounds[0] == 0): the caller runs block 0 inline and dispatches blocks
// 1..k-1 to parked workers, falling back to inline execution when the
// queue is full, then joins while helping drain the queue.
func (pl *Pool) runBounds(bounds []int, body func(worker, lo, hi int)) {
	k := len(bounds) - 1
	if k == 1 {
		body(0, bounds[0], bounds[1])
		return
	}
	atomic.AddInt64(&pl.forks, 1)
	f := forkCache.Get().(*fork)
	f.body = body
	atomic.StoreInt32(&f.pending, int32(k-1))
	dispatched := 0
	for w := 1; w < k; w++ {
		select {
		case pl.tasks <- task{f: f, worker: w, lo: bounds[w], hi: bounds[w+1]}:
			dispatched++
		default:
			body(w, bounds[w], bounds[w+1])
			f.finishOne()
		}
	}
	atomic.AddInt64(&pl.dispatches, int64(dispatched))
	atomic.AddInt64(&pl.inlineBlocks, int64(k-dispatched))
	body(0, bounds[0], bounds[1])
	// Helping join: run queued blocks (of this or any concurrent fork)
	// until our own last block retires. This keeps nested forks live and
	// puts the joining goroutine to work instead of blocking it.
	for {
		select {
		case <-f.done:
			f.body = nil
			forkCache.Put(f)
			return
		case t, ok := <-pl.tasks:
			if !ok {
				// Pool closed mid-join: the queue is drained, so our
				// remaining blocks are already running on workers —
				// block on the join signal alone.
				<-f.done
				f.body = nil
				forkCache.Put(f)
				return
			}
			t.f.body(t.worker, t.lo, t.hi)
			t.f.finishOne()
		}
	}
}

// ForBlocks is the pool-scoped ForBlocks: at most p contiguous blocks,
// run via the persistent workers (inline below the sequential grain).
func (pl *Pool) ForBlocks(p, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	bounds := pl.planUniform(p, n)
	if bounds == nil {
		body(0, n)
		return
	}
	pl.runBounds(bounds, func(_, lo, hi int) { body(lo, hi) })
}

// For is the pool-scoped element-wise parallel loop.
func (pl *Pool) For(p, n int, body func(i int)) {
	pl.ForBlocks(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForWorkers is the pool-scoped ForWorkers: body additionally receives
// the block index in [0, p'), p' <= p, for per-worker scratch.
func (pl *Pool) ForWorkers(p, n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	bounds := pl.planUniform(p, n)
	if bounds == nil {
		body(0, 0, n)
		return
	}
	pl.runBounds(bounds, body)
}

// ForBlocksWeighted partitions the CSR vertex range [0, len(offsets)-1)
// into at most p blocks of roughly equal arc count (edge-balanced, found
// by binary search on the offset array) and runs body on each block.
// Contiguous vertex-count chunking load-imbalances badly on skew-heavy
// graphs; this is the degree-aware split that fixes it.
func (pl *Pool) ForBlocksWeighted(p int, offsets []int64, body func(lo, hi int)) {
	n := len(offsets) - 1
	if n <= 0 {
		return
	}
	bounds := pl.planWeighted(p, n, offsets)
	if bounds == nil {
		body(0, n)
		return
	}
	pl.runBounds(bounds, func(_, lo, hi int) { body(lo, hi) })
}

// ForWorkersWeightedBy is the weighted loop over an indexed collection
// (a frontier, a batch) with per-item weights — typically the degree of
// frontier[i]. It materializes the weight prefix once (O(n)) and then
// splits edge-balanced like ForBlocksWeighted. scratch, when non-nil,
// supplies the prefix buffer (len >= n+1) so per-round callers can avoid
// reallocating it.
func (pl *Pool) ForWorkersWeightedBy(p, n int, scratch []int64, weight func(i int) int64, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	p = clampProcs(p, n)
	if p == 1 {
		body(0, 0, n)
		return
	}
	var prefix []int64
	if len(scratch) >= n+1 {
		prefix = scratch[:n+1]
	} else {
		prefix = make([]int64, n+1)
	}
	var run int64
	for i := 0; i < n; i++ {
		prefix[i] = run
		run += weight(i)
	}
	prefix[n] = run
	bounds := pl.planWeighted(p, n, prefix)
	if bounds == nil {
		body(0, 0, n)
		return
	}
	pl.runBounds(bounds, body)
}

// ForWeightedBy is the element-wise form of ForWorkersWeightedBy.
func (pl *Pool) ForWeightedBy(p, n int, weight func(i int) int64, body func(i int)) {
	pl.ForWorkersWeightedBy(p, n, nil, weight, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ReduceInt64 is the pool-scoped sum reduction.
func (pl *Pool) ReduceInt64(p, n int, f func(i int) int64) int64 {
	if n <= 0 {
		return 0
	}
	bounds := pl.planUniform(p, n)
	if bounds == nil {
		var s int64
		for i := 0; i < n; i++ {
			s += f(i)
		}
		return s
	}
	partial := make([]int64, len(bounds)-1)
	pl.runBounds(bounds, func(w, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partial[w] = s
	})
	var total int64
	for _, s := range partial {
		total += s
	}
	return total
}

// MaxInt64 is the pool-scoped max reduction; returns def for n == 0.
func (pl *Pool) MaxInt64(p, n int, def int64, f func(i int) int64) int64 {
	return pl.extremeInt64(p, n, def, f, false)
}

// MinInt64 is the pool-scoped min reduction; returns def for n == 0.
// Implemented directly (not as -Max of -f, whose negation overflows for
// math.MinInt64 inputs or defaults).
func (pl *Pool) MinInt64(p, n int, def int64, f func(i int) int64) int64 {
	return pl.extremeInt64(p, n, def, f, true)
}

func (pl *Pool) extremeInt64(p, n int, def int64, f func(i int) int64, min bool) int64 {
	if n <= 0 {
		return def
	}
	better := func(v, m int64) bool {
		if min {
			return v < m
		}
		return v > m
	}
	bounds := pl.planUniform(p, n)
	if bounds == nil {
		m := def
		for i := 0; i < n; i++ {
			if v := f(i); better(v, m) {
				m = v
			}
		}
		return m
	}
	partial := make([]int64, len(bounds)-1)
	for i := range partial {
		partial[i] = def
	}
	pl.runBounds(bounds, func(w, lo, hi int) {
		m := def
		for i := lo; i < hi; i++ {
			if v := f(i); better(v, m) {
				m = v
			}
		}
		partial[w] = m
	})
	m := def
	for _, v := range partial {
		if better(v, m) {
			m = v
		}
	}
	return m
}

// PrefixSumInt32 is the pool-scoped exclusive scan (see the free
// function for the contract). The block structure is derived from one
// plan and shared by both passes, so per-block partial sums always line
// up with the blocks that produced them.
func (pl *Pool) PrefixSumInt32(p int, src []int32, dst []int64) int64 {
	n := len(src)
	if len(dst) != n+1 {
		panic("par: PrefixSumInt32 requires len(dst) == len(src)+1")
	}
	if n == 0 {
		dst[0] = 0
		return 0
	}
	bounds := pl.planUniform(p, n)
	if bounds == nil {
		var run int64
		for i, v := range src {
			dst[i] = run
			run += int64(v)
		}
		dst[n] = run
		return run
	}
	k := len(bounds) - 1
	sums := make([]int64, k)
	pl.runBounds(bounds, func(w, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(src[i])
		}
		sums[w] = s
	})
	var run int64
	for i, s := range sums {
		sums[i] = run
		run += s
	}
	total := run
	pl.runBounds(bounds, func(w, lo, hi int) {
		acc := sums[w]
		for i := lo; i < hi; i++ {
			dst[i] = acc
			acc += int64(src[i])
		}
	})
	dst[n] = total
	return total
}

// Pack is the pool-scoped Filter/Pack primitive; output order is
// ascending regardless of p or scheduling. keep runs exactly once per
// index: each block collects its kept indices, and the blocks are
// concatenated in block order.
func (pl *Pool) Pack(p, n int, keep func(i int) bool) []uint32 {
	if n <= 0 {
		return nil
	}
	bounds := pl.planUniform(p, n)
	if bounds == nil {
		return packRange(make([]uint32, 0, 16), 0, n, keep)
	}
	parts := make([][]uint32, len(bounds)-1)
	pl.runBounds(bounds, func(w, lo, hi int) {
		parts[w] = packRange(nil, lo, hi, keep)
	})
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	out := make([]uint32, 0, total)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// packRange appends the indices i in [lo, hi) with keep(i) to out.
func packRange(out []uint32, lo, hi int, keep func(i int) bool) []uint32 {
	for i := lo; i < hi; i++ {
		if keep(i) {
			out = append(out, uint32(i))
		}
	}
	return out
}

package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{0, 1, 2, 5, 100, 1000} {
			hit := make([]int32, n)
			For(p, n, func(i int) { atomic.AddInt32(&hit[i], 1) })
			for i, h := range hit {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d visited %d times", p, n, i, h)
				}
			}
		}
	}
}

func TestForBlocksPartition(t *testing.T) {
	for _, p := range []int{1, 2, 4, 16} {
		n := 1003
		var covered int64
		ForBlocks(p, n, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad block [%d,%d)", lo, hi)
			}
			atomic.AddInt64(&covered, int64(hi-lo))
		})
		if covered != int64(n) {
			t.Fatalf("p=%d: covered %d of %d", p, covered, n)
		}
	}
}

func TestForBlocksEmptyAndNegative(t *testing.T) {
	called := false
	ForBlocks(4, 0, func(lo, hi int) { called = true })
	ForBlocks(4, -5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestForWorkersDistinctIDs(t *testing.T) {
	// Small n runs inline below the sequential grain (one block, worker 0);
	// n above the grain must fork into multiple blocks with distinct
	// worker indices in [0, p) and full coverage either way.
	for _, n := range []int{100, 100000} {
		p := 4
		seen := make([]int32, p)
		var covered int64
		ForWorkers(p, n, func(w, lo, hi int) {
			if w < 0 || w >= p {
				t.Errorf("n=%d: worker id %d out of range", n, w)
				return
			}
			atomic.AddInt32(&seen[w], 1)
			atomic.AddInt64(&covered, int64(hi-lo))
		})
		if covered != int64(n) {
			t.Fatalf("n=%d: covered %d", n, covered)
		}
		for w := 0; w < p; w++ {
			if seen[w] > 1 {
				t.Fatalf("n=%d: worker %d ran %d blocks, want <= 1", n, w, seen[w])
			}
		}
		if n == 100 && seen[0] != 1 {
			t.Fatalf("small n should run inline on worker 0")
		}
		if n == 100000 {
			blocks := 0
			for _, s := range seen {
				blocks += int(s)
			}
			if blocks != p {
				t.Fatalf("n=%d: forked %d blocks, want %d", n, blocks, p)
			}
		}
	}
}

func TestReduceInt64(t *testing.T) {
	for _, p := range []int{1, 2, 4, 9} {
		n := 1234
		got := ReduceInt64(p, n, func(i int) int64 { return int64(i) })
		want := int64(n) * int64(n-1) / 2
		if got != want {
			t.Fatalf("p=%d: sum=%d want %d", p, got, want)
		}
	}
}

func TestReduceInt64Empty(t *testing.T) {
	if got := ReduceInt64(4, 0, func(i int) int64 { return 1 }); got != 0 {
		t.Fatalf("empty reduce = %d", got)
	}
}

func TestCount(t *testing.T) {
	n := 1000
	got := Count(4, n, func(i int) bool { return i%3 == 0 })
	want := 334 // 0,3,...,999
	if got != want {
		t.Fatalf("Count=%d want %d", got, want)
	}
}

func TestMaxMin(t *testing.T) {
	vals := []int64{5, -2, 9, 3, 9, -7, 0}
	n := len(vals)
	for _, p := range []int{1, 2, 4} {
		if got := MaxInt64(p, n, -1<<62, func(i int) int64 { return vals[i] }); got != 9 {
			t.Fatalf("max=%d", got)
		}
		if got := MinInt64(p, n, 1<<62, func(i int) int64 { return vals[i] }); got != -7 {
			t.Fatalf("min=%d", got)
		}
	}
	if got := MaxInt64(4, 0, -42, func(i int) int64 { return 0 }); got != -42 {
		t.Fatalf("empty max=%d want default", got)
	}
}

func TestPrefixSumMatchesSequential(t *testing.T) {
	check := func(seed int64, nRaw uint16) bool {
		n := int(nRaw % 2000)
		src := make([]int32, n)
		s := seed
		for i := range src {
			s = s*6364136223846793005 + 1442695040888963407
			src[i] = int32(s % 100)
			if src[i] < 0 {
				src[i] = -src[i]
			}
		}
		want := make([]int64, n+1)
		var run int64
		for i, v := range src {
			want[i] = run
			run += int64(v)
		}
		want[n] = run
		for _, p := range []int{1, 2, 4} {
			dst := make([]int64, n+1)
			total := PrefixSumInt32(p, src, dst)
			if total != run {
				return false
			}
			for i := range want {
				if dst[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixSumPanicsOnBadDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched dst length")
		}
	}()
	PrefixSumInt32(1, make([]int32, 5), make([]int64, 5))
}

func TestPackPreservesOrder(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		n := 500
		got := Pack(p, n, func(i int) bool { return i%7 == 0 })
		want := 0
		for i := 0; i < n; i += 7 {
			if int(got[want]) != i {
				t.Fatalf("p=%d: got[%d]=%d want %d", p, want, got[want], i)
			}
			want++
		}
		if len(got) != want {
			t.Fatalf("p=%d: len=%d want %d", p, len(got), want)
		}
	}
}

func TestPackAllAndNone(t *testing.T) {
	n := 100
	all := Pack(4, n, func(i int) bool { return true })
	if len(all) != n {
		t.Fatalf("all: len=%d", len(all))
	}
	none := Pack(4, n, func(i int) bool { return false })
	if len(none) != 0 {
		t.Fatalf("none: len=%d", len(none))
	}
	if Pack(4, 0, func(i int) bool { return true }) != nil {
		t.Fatal("empty pack should be nil")
	}
}

func TestDecrementAndFetch(t *testing.T) {
	var c int32 = 100
	For(4, 100, func(i int) { DecrementAndFetch(&c) })
	if c != 0 {
		t.Fatalf("counter = %d, want 0", c)
	}
}

func TestJoinExactlyOneWinner(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		var c int32 = 64
		var winners int32
		For(4, 64, func(i int) {
			if Join(&c) {
				atomic.AddInt32(&winners, 1)
			}
		})
		if winners != 1 {
			t.Fatalf("trial %d: %d winners, want exactly 1", trial, winners)
		}
	}
}

func TestClampProcs(t *testing.T) {
	if got := clampProcs(0, 10); got < 1 {
		t.Fatalf("clampProcs(0,10)=%d", got)
	}
	if got := clampProcs(100, 3); got != 3 {
		t.Fatalf("clampProcs(100,3)=%d want 3", got)
	}
	if got := clampProcs(-1, 5); got < 1 {
		t.Fatalf("clampProcs(-1,5)=%d", got)
	}
}

func TestDefaultProcsPositive(t *testing.T) {
	if DefaultProcs() < 1 {
		t.Fatal("DefaultProcs < 1")
	}
}

func TestFetchAdd64(t *testing.T) {
	var c int64
	For(4, 1000, func(i int) { FetchAdd64(&c, 2) })
	if c != 2000 {
		t.Fatalf("c=%d", c)
	}
}

func BenchmarkReduce(b *testing.B) {
	n := 1 << 20
	for i := 0; i < b.N; i++ {
		ReduceInt64(DefaultProcs(), n, func(i int) int64 { return int64(i & 7) })
	}
}

func BenchmarkPrefixSum(b *testing.B) {
	n := 1 << 20
	src := make([]int32, n)
	dst := make([]int64, n+1)
	for i := range src {
		src[i] = int32(i & 15)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PrefixSumInt32(DefaultProcs(), src, dst)
	}
}

// TestCtxErrDeadlineUnderSingleProc pins the GOMAXPROCS=1 starvation
// fix (PR 2's wall-clock check in CtxErr): with a single P and a busy
// compute loop that never yields, the runtime may never schedule the
// context's internal timer goroutine, so ctx.Err() alone can stay nil
// long past the deadline. CtxErr compares against the deadline
// wall-clock directly, which bounds the cancellation latency of every
// round loop that polls it — this test fails if that check is ever
// removed (the busy loop would spin until the scheduler happens to
// run the timer, far past the latency bound asserted here).
func TestCtxErrDeadlineUnderSingleProc(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	start := time.Now()
	var spins int64
	for {
		if err := CtxErr(ctx); err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("CtxErr = %v, want DeadlineExceeded", err)
			}
			break
		}
		spins++ // busy loop: no sleeps, no channel ops, nothing that yields
		if time.Since(start) > 10*time.Second {
			t.Fatal("CtxErr never observed the expired deadline under GOMAXPROCS=1")
		}
	}
	elapsed := time.Since(start)
	// (No lower-bound assertion: start is stamped a hair after the
	// deadline was armed, so elapsed may read epsilon under it.)
	// The wall-clock check fires on the first poll past the deadline;
	// anything near a second means we waited for the starved timer
	// goroutine instead. 2s is lax enough for a loaded CI box.
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation latency %v under GOMAXPROCS=1 (deadline %v, %d polls) — wall-clock check regressed",
			elapsed, deadline, spins)
	}
}

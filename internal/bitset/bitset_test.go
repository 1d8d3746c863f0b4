package bitset

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestSetBasic(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len=%d", s.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count=%d want 8", s.Count())
	}
	s.Clear(64)
	if s.Test(64) || s.Count() != 7 {
		t.Fatal("Clear(64) failed")
	}
}

func TestSetResetFillAny(t *testing.T) {
	s := New(100)
	if s.Any() {
		t.Fatal("fresh bitmap Any=true")
	}
	s.Fill()
	if s.Count() != 100 {
		t.Fatalf("Fill Count=%d want 100", s.Count())
	}
	if !s.Any() {
		t.Fatal("filled bitmap Any=false")
	}
	s.Reset()
	if s.Count() != 0 || s.Any() {
		t.Fatal("Reset failed")
	}
}

func TestFillDoesNotOverflowCapacity(t *testing.T) {
	// Fill on a non-word-multiple capacity must not set ghost bits that
	// would corrupt Count or NextClear.
	for _, n := range []int{1, 5, 63, 64, 65, 127, 200} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("n=%d: Count=%d", n, s.Count())
		}
		if got := s.NextClear(0); got != -1 {
			t.Fatalf("n=%d: NextClear on full set = %d, want -1", n, got)
		}
	}
}

func TestNextClear(t *testing.T) {
	s := New(200)
	for i := 0; i < 70; i++ {
		s.Set(i)
	}
	if got := s.NextClear(0); got != 70 {
		t.Fatalf("NextClear(0)=%d want 70", got)
	}
	if got := s.NextClear(70); got != 70 {
		t.Fatalf("NextClear(70)=%d want 70", got)
	}
	s.Set(70)
	s.Set(71)
	if got := s.NextClear(69); got != 72 {
		t.Fatalf("NextClear(69)=%d want 72", got)
	}
	if got := s.NextClear(500); got != -1 {
		t.Fatalf("NextClear past end = %d", got)
	}
	if got := s.NextClear(-3); got != 72 {
		t.Fatalf("NextClear(-3)=%d want 72", got)
	}
}

func TestNextClearMatchesNaive(t *testing.T) {
	check := func(seed uint64, nRaw uint8, fromRaw uint8) bool {
		n := int(nRaw)%300 + 1
		s := New(n)
		r := xrand.New(seed)
		for i := 0; i < n; i++ {
			if r.Bool() {
				s.Set(i)
			}
		}
		from := int(fromRaw) % (n + 10)
		want := -1
		for i := from; i < n; i++ {
			if i >= 0 && !s.Test(i) {
				want = i
				break
			}
		}
		return s.NextClear(from) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(300)
	want := []int{0, 5, 63, 64, 200, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestOrAndNotCloneEqual(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(1)
	a.Set(50)
	b.Set(50)
	b.Set(99)
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("clone not equal")
	}
	c.Or(b)
	for _, i := range []int{1, 50, 99} {
		if !c.Test(i) {
			t.Fatalf("union missing %d", i)
		}
	}
	c.AndNot(b)
	if c.Test(50) || c.Test(99) || !c.Test(1) {
		t.Fatal("AndNot wrong")
	}
	if c.Equal(b) {
		t.Fatal("Equal false positive")
	}
}

func TestOrPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(10).Or(New(20))
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(-1)
}

func TestFromWordsCarvesOneArena(t *testing.T) {
	// Three bitmaps of 1, 64 and 65 bits over one 4-word arena: each
	// writes only its own words, and a Fill stops at its capacity.
	arena := make([]uint64, 4)
	a, b, c := FromWords(arena[0:1], 1), FromWords(arena[1:2], 64), FromWords(arena[2:4], 65)
	a.Set(0)
	b.Set(63)
	c.Fill()
	if arena[0] != 1 || arena[1] != 1<<63 || arena[2] != ^uint64(0) || arena[3] != 1 {
		t.Fatalf("arena = %#x", arena)
	}
	if a.Len() != 1 || a.Count() != 1 || b.Count() != 1 || c.Count() != 65 {
		t.Fatalf("counts %d %d %d", a.Count(), b.Count(), c.Count())
	}
	if b.NextClear(0) != 0 || b.NextClear(63) != -1 || c.NextClear(0) != -1 {
		t.Fatal("NextClear reads past a carved bitmap")
	}
	// The bitmap starts from the words' bits, and a longer slice is cut
	// to the bitmap's own words.
	d := FromWords(arena, 1)
	if !d.Test(0) || d.Count() != 1 || d.NextClear(0) != -1 {
		t.Fatalf("Count=%d over a 1-bit view of the arena", d.Count())
	}
	e := FromWords(make([]uint64, 2), 0)
	if e.Count() != 0 || e.NextClear(0) != -1 {
		t.Fatal("zero-capacity view misbehaves")
	}
}

func TestFromWordsPanicsOnShortWords(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FromWords(make([]uint64, 1), 65)
}

func TestZeroCapacity(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || s.Any() || s.NextClear(0) != -1 {
		t.Fatal("zero-capacity bitmap misbehaves")
	}
}

func TestAtomicBasic(t *testing.T) {
	a := NewAtomic(128)
	a.Set(5)
	a.Set(64)
	if !a.Test(5) || !a.Test(64) || a.Test(6) {
		t.Fatal("atomic set/test wrong")
	}
	if a.Count() != 2 {
		t.Fatalf("Count=%d", a.Count())
	}
	a.Clear(5)
	if a.Test(5) {
		t.Fatal("Clear failed")
	}
	a.Reset()
	if a.Count() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestAtomicConcurrentSet(t *testing.T) {
	const n = 4096
	a := NewAtomic(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				a.Set(i)
			}
		}(w)
	}
	wg.Wait()
	if a.Count() != n {
		t.Fatalf("Count=%d want %d", a.Count(), n)
	}
}

func TestAtomicTrySetUniqueWinner(t *testing.T) {
	const bitsN = 64
	const contenders = 8
	a := NewAtomic(bitsN)
	wins := make([]int32, bitsN)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < contenders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < bitsN; i++ {
				if a.TrySet(i) {
					mu.Lock()
					wins[i]++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for i, wcount := range wins {
		if wcount != 1 {
			t.Fatalf("bit %d won by %d goroutines", i, wcount)
		}
	}
}

func TestAtomicConcurrentSameBit(t *testing.T) {
	a := NewAtomic(1)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Set(0)
			}
		}()
	}
	wg.Wait()
	if !a.Test(0) || a.Count() != 1 {
		t.Fatal("concurrent same-bit set corrupted state")
	}
}

func BenchmarkSetNextClear(b *testing.B) {
	s := New(1 << 16)
	for i := 0; i < 1<<15; i++ {
		s.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.NextClear(0)
	}
}

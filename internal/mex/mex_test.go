package mex

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/xrand"
)

func TestFreshSetIsEmpty(t *testing.T) {
	s := New(3)
	if got := s.Smallest(); got != 1 {
		t.Fatalf("fresh set: Smallest = %d, want 1", got)
	}
}

func TestSmallestSkipsForbidden(t *testing.T) {
	s := New(4)
	s.Reset()
	for _, c := range []uint32{1, 2, 4} {
		s.Forbid(c)
	}
	if got := s.Smallest(); got != 3 {
		t.Fatalf("Smallest = %d, want 3", got)
	}
	s.Forbid(3)
	if got := s.Smallest(); got != 5 {
		t.Fatalf("Smallest = %d, want 5", got)
	}
}

func TestResetForgetsEarlierColors(t *testing.T) {
	s := New(2)
	s.Reset()
	s.Forbid(1)
	s.Forbid(2)
	s.Reset()
	s.Forbid(2)
	if got := s.Smallest(); got != 1 {
		t.Fatalf("after Reset: Smallest = %d, want 1", got)
	}
}

func TestForbidIgnoresColorsPastRange(t *testing.T) {
	s := New(2) // colors 1..3
	s.Reset()
	for _, c := range []uint32{0, 4, 5, 1 << 20, ^uint32(0)} {
		s.Forbid(c)
	}
	if got := s.Smallest(); got != 1 {
		t.Fatalf("Smallest = %d, want 1", got)
	}
}

func TestForbiddenReportsTheSet(t *testing.T) {
	s := New(4) // colors 1..5
	s.Reset()
	for _, c := range []uint32{2, 5, 9} {
		s.Forbid(c)
	}
	for c, want := range []bool{false, false, true, false, false, true, false, false, false, false} {
		if got := s.Forbidden(uint32(c)); got != want {
			t.Errorf("Forbidden(%d) = %v, want %v", c, got, want)
		}
	}
	s.Reset()
	if s.Forbidden(2) {
		t.Error("Forbidden(2) survived Reset")
	}
}

// TestForbidZeroIsInvisible pins what JP's branch-free scan relies
// on: forbidding 0, an uncolored neighbor's color, changes neither
// Smallest nor Forbidden(c) for any color c >= 1, whatever else the
// set holds.
func TestForbidZeroIsInvisible(t *testing.T) {
	const maxDeg = 6 // colors 1..7
	// Every subset of 1..7 but the full one, which no vertex of degree
	// at most 6 can forbid.
	for mask := 0; mask < 1<<(maxDeg+1)-1; mask++ {
		with, without := New(maxDeg), New(maxDeg)
		with.Reset()
		without.Reset()
		with.Forbid(0)
		for c := uint32(1); c <= maxDeg+1; c++ {
			if mask&(1<<(c-1)) != 0 {
				with.Forbid(c)
				without.Forbid(c)
			}
		}
		with.Forbid(0)
		if got, want := with.Smallest(), without.Smallest(); got != want {
			t.Fatalf("set %b: Smallest = %d with 0 forbidden, %d without", mask, got, want)
		}
		for c := uint32(1); c <= maxDeg+2; c++ {
			if got, want := with.Forbidden(c), without.Forbidden(c); got != want {
				t.Fatalf("set %b: Forbidden(%d) = %v with 0 forbidden, %v without", mask, c, got, want)
			}
		}
	}
}

// TestGreedyMatchesNaive checks Greedy against a map-based mex on
// random neighborhoods, colors 0..deg+3 so that some exceed the range.
func TestGreedyMatchesNaive(t *testing.T) {
	s := New(16)
	check := func(seed uint64, degRaw uint8) bool {
		rng := xrand.New(seed)
		deg := int(degRaw % 17)
		colors := make([]uint32, deg)
		neighbors := make([]uint32, deg)
		for i := range colors {
			colors[i] = uint32(rng.Intn(deg + 4))
			neighbors[i] = uint32(i)
		}
		taken := map[uint32]bool{}
		for _, c := range colors {
			taken[c] = true
		}
		want := uint32(1)
		for taken[want] {
			want++
		}
		return s.Greedy(neighbors, colors) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGreedy recomputes every vertex's smallest free color against
// a proper greedy coloring of kron:14, the kernel's inner loop alone.
func BenchmarkGreedy(b *testing.B) {
	g, err := gen.Kronecker(14, 16, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	s := New(g.MaxDegree())
	colors := make([]uint32, n)
	for v := 0; v < n; v++ {
		colors[v] = s.Greedy(g.Neighbors(uint32(v)), colors)
	}
	for b.Loop() {
		for v := 0; v < n; v++ {
			s.Greedy(g.Neighbors(uint32(v)), colors)
		}
	}
}

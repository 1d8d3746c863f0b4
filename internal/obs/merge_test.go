package obs

import (
	"math"
	"testing"
)

// TestQuantileEmptySnapshot pins the empty-snapshot contract: NaN, not
// a zero that would read as "instant" on a dashboard.
func TestQuantileEmptySnapshot(t *testing.T) {
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("Quantile on zero-value snapshot = %v, want NaN", q)
	}
	// Count > 0 with no buckets (a hand-built or truncated document) is
	// equally unanswerable.
	bad := HistogramSnapshot{Count: 3}
	if q := bad.Quantile(0.99); !math.IsNaN(q) {
		t.Fatalf("Quantile with Count>0 but no buckets = %v, want NaN", q)
	}
	// A count with only the overflow bucket has no finite bound to
	// report, and a bucket list that does not match the bounds is no
	// histogram at all: both are NaN, not an index past Bounds.
	for _, s := range []HistogramSnapshot{
		{Count: 3, Buckets: []int64{3}},
		{Count: 3, Bounds: []float64{0.1}, Buckets: []int64{1, 1, 1}},
		{Count: 3, Bounds: []float64{0.1, 0.2}, Buckets: []int64{3}},
	} {
		if s.Valid() {
			t.Fatalf("%+v: Valid", s)
		}
		if q := s.Quantile(0.99); !math.IsNaN(q) {
			t.Fatalf("Quantile of %+v = %v, want NaN", s, q)
		}
	}
	// A snapshot whose only mass is in the +Inf overflow bucket reports
	// the largest finite bound rather than +Inf.
	h := NewHistogram([]float64{0.001, 0.01})
	h.ObserveSeconds(5)
	if q := h.Snapshot().Quantile(0.5); q != 0.01 {
		t.Fatalf("overflow-only Quantile = %v, want largest finite bound 0.01", q)
	}
}

// TestMergeMismatchedBuckets pins Merge's behavior on shape skew: an
// empty side is an identity merge, a genuine layout mismatch keeps the
// receiver and increments the MergeMismatches counter instead of
// silently truncating.
func TestMergeMismatchedBuckets(t *testing.T) {
	a := NewHistogram([]float64{0.001, 0.01})
	a.ObserveSeconds(0.0005)
	b := NewHistogram([]float64{0.001})
	b.ObserveSeconds(0.0005)
	sa, sb := a.Snapshot(), b.Snapshot()

	base := MergeMismatches()

	// Identity merges: empty-with-X and X-with-empty, no mismatch counted.
	var empty HistogramSnapshot
	if got := empty.Merge(sa); got.Count != sa.Count || len(got.Buckets) != len(sa.Buckets) {
		t.Fatalf("empty.Merge(a) = %+v, want a", got)
	}
	if got := sa.Merge(empty); got.Count != sa.Count || len(got.Buckets) != len(sa.Buckets) {
		t.Fatalf("a.Merge(empty) = %+v, want a", got)
	}
	if n := MergeMismatches() - base; n != 0 {
		t.Fatalf("identity merges counted %d mismatches, want 0", n)
	}

	// Layout mismatch: receiver wins, counter moves.
	got := sa.Merge(sb)
	if got.Count != sa.Count || len(got.Buckets) != len(sa.Buckets) {
		t.Fatalf("mismatched merge = %+v, want the receiver unchanged", got)
	}
	if n := MergeMismatches() - base; n != 1 {
		t.Fatalf("mismatched merge counted %d, want 1", n)
	}

	// Matching layouts still sum.
	c := NewHistogram([]float64{0.001, 0.01})
	c.ObserveSeconds(0.005)
	sum := sa.Merge(c.Snapshot())
	if sum.Count != 2 {
		t.Fatalf("matching merge Count = %d, want 2", sum.Count)
	}
}

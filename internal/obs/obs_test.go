package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramConcurrent hammers one histogram from many goroutines
// (the -race gate) and checks the invariants that make snapshots
// trustworthy: the merged total is exact, every bucket is
// non-negative, and the cumulative bucket sequence is monotone and
// ends at the total count.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Spread observations across the full bucket range.
				h.ObserveSeconds(0.0001 * float64(1+(g*perG+i)%131072))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var cum, prev int64
	for i, c := range s.Buckets {
		if c < 0 {
			t.Fatalf("bucket %d negative: %d", i, c)
		}
		cum += c
		if cum < prev {
			t.Fatalf("cumulative buckets not monotone at %d", i)
		}
		prev = cum
	}
	if cum != s.Count {
		t.Fatalf("bucket sum %d != count %d", cum, s.Count)
	}
	if s.Sum <= 0 {
		t.Fatalf("sum not positive: %v", s.Sum)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Millisecond) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram snapshot count = %d", s.Count)
	}
	if !math.IsNaN(HistogramSnapshot{}.Quantile(0.5)) {
		t.Fatal("empty snapshot quantile should be NaN")
	}
}

func TestHistogramSubMergeQuantile(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 100; i++ {
		h.ObserveSeconds(0.001) // all land in one bucket
	}
	before := h.Snapshot()
	for i := 0; i < 100; i++ {
		h.ObserveSeconds(0.1)
	}
	delta := h.Snapshot().Sub(before)
	if delta.Count != 100 {
		t.Fatalf("delta count = %d, want 100", delta.Count)
	}
	q := delta.Quantile(0.5)
	if q < 0.05 || q > 0.2 {
		t.Fatalf("delta p50 = %v, want ~0.1 (all delta observations were 0.1s)", q)
	}
	merged := before.Merge(delta)
	if merged.Count != 200 {
		t.Fatalf("merged count = %d, want 200", merged.Count)
	}
	// Quantiles bracket the data: p1 near 1ms, p99 near 100ms.
	if p := merged.Quantile(0.25); p > 0.002 {
		t.Fatalf("merged p25 = %v, want <= 2ms", p)
	}
	if p := merged.Quantile(0.99); p < 0.05 {
		t.Fatalf("merged p99 = %v, want >= 50ms", p)
	}
	// Mismatched shapes: Sub returns the receiver, Merge the non-empty side.
	odd := HistogramSnapshot{Count: 1, Buckets: []int64{1}}
	if got := delta.Sub(odd); got.Count != delta.Count {
		t.Fatal("Sub with mismatched shape should return receiver")
	}
	if got := (HistogramSnapshot{}).Merge(odd); got.Count != 1 {
		t.Fatal("Merge into empty should return other side")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.ObserveSeconds(5) // beyond every bound
	s := h.Snapshot()
	if s.Buckets[2] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Buckets[2])
	}
	if q := s.Quantile(0.99); q != 0.01 {
		t.Fatalf("overflow quantile = %v, want last finite bound 0.01", q)
	}
}

func TestRegistryPromExposition(t *testing.T) {
	r := NewRegistry()
	hv := r.NewHistogramVec("colord_test_duration_seconds", "test latency", []string{"endpoint", "class"}, nil)
	cv := r.NewCounterVec("colord_test_total", "test counter", []string{"kind"})
	ratio := 0.75
	r.NewFunc("colord_test_gauge", "test gauge", "gauge", nil, func() []Sample { return Value(ratio) })

	hv.With("/v1/color", "2xx").Observe(2 * time.Millisecond)
	hv.With("/v1/color", "2xx").Observe(20 * time.Millisecond)
	hv.With("/v1/color", "5xx").Observe(time.Second)
	cv.With("hit").Add(3)
	cv.With("miss").Inc()

	if got := cv.With("hit").Value(); got != 3 {
		t.Fatalf("counter value = %d, want 3", got)
	}

	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE colord_test_duration_seconds histogram",
		`colord_test_duration_seconds_bucket{endpoint="/v1/color",class="2xx",le="+Inf"} 2`,
		`colord_test_duration_seconds_count{endpoint="/v1/color",class="2xx"} 2`,
		`colord_test_duration_seconds_count{endpoint="/v1/color",class="5xx"} 1`,
		"# TYPE colord_test_total counter",
		`colord_test_total{kind="hit"} 3`,
		`colord_test_total{kind="miss"} 1`,
		"# TYPE colord_test_gauge gauge",
		"colord_test_gauge 0.75",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\nfull output:\n%s", want, out)
		}
	}

	// Cumulative bucket lines must be monotone for each series.
	snaps := hv.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("Snapshots() returned %d series, want 2", len(snaps))
	}
	if snaps["/v1/color,2xx"].Count != 2 {
		t.Fatalf("snapshot count = %d, want 2", snaps["/v1/color,2xx"].Count)
	}
}

func TestNilRegistryChain(t *testing.T) {
	var r *Registry
	hv := r.NewHistogramVec("x", "", nil, nil)
	hv.With().Observe(time.Second) // must not panic
	r.NewCounterVec("y", "", []string{"a"}).With("b").Inc()
	r.NewFunc("z", "", "gauge", nil, func() []Sample { return Value(1) })
	var b strings.Builder
	r.WriteProm(&b)
	if b.Len() != 0 {
		t.Fatal("nil registry wrote output")
	}
	if hv.Snapshots() != nil {
		t.Fatal("nil vec snapshots should be nil")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("colord_esc_total", "", []string{"peer"})
	cv.With(`http://a"b\c` + "\n").Inc()
	var b strings.Builder
	r.WriteProm(&b)
	if !strings.Contains(b.String(), `peer="http://a\"b\\c\n"`) {
		t.Fatalf("label not escaped: %s", b.String())
	}
}

// TestFuncFamilies pins the scrape-time family: every scrape reads its
// owner afresh, series come out sorted by label values whatever order
// the owner returns them in, a read with no samples leaves the family
// out, and integral values print as integers however large.
func TestFuncFamilies(t *testing.T) {
	r := NewRegistry()
	owner := map[string]float64{"b": 2, "a": 1e7}
	r.NewFunc("colord_owned_bytes", "owned bytes", "gauge", []string{"graph"}, func() []Sample {
		var out []Sample
		for g, v := range owner {
			out = append(out, Sample{Labels: []string{g}, Value: v})
		}
		return out
	})
	r.NewFunc("colord_owned_seconds", "owned latency", "histogram", nil, func() []Sample {
		h := NewHistogram([]float64{0.5})
		h.ObserveSeconds(0.25)
		return []Sample{{Hist: h.Snapshot()}}
	})
	r.NewFunc("colord_absent_total", "no samples", "counter", nil, func() []Sample { return nil })

	scrape := func() string {
		var b strings.Builder
		r.WriteProm(&b)
		return b.String()
	}
	want := "# HELP colord_owned_bytes owned bytes\n# TYPE colord_owned_bytes gauge\n" +
		"colord_owned_bytes{graph=\"a\"} 10000000\ncolord_owned_bytes{graph=\"b\"} 2\n" +
		"# HELP colord_owned_seconds owned latency\n# TYPE colord_owned_seconds histogram\n" +
		"colord_owned_seconds_bucket{le=\"0.5\"} 1\ncolord_owned_seconds_bucket{le=\"+Inf\"} 1\n" +
		"colord_owned_seconds_sum 0.25\ncolord_owned_seconds_count 1\n"
	if got := scrape(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	owner["b"] = 3.5
	if got := scrape(); !strings.Contains(got, `colord_owned_bytes{graph="b"} 3.5`) {
		t.Fatalf("second scrape did not re-read the owner:\n%s", got)
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b || a == "" {
		t.Fatalf("request IDs not unique: %q %q", a, b)
	}
	ctx := WithTrace(context.Background(), &TraceContext{RequestID: a})
	if got := RequestIDFrom(ctx); got != a {
		t.Fatalf("RequestIDFrom = %q, want %q", got, a)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Fatalf("RequestIDFrom(empty) = %q", got)
	}
}

func TestTraceContextSpans(t *testing.T) {
	var nilTC *TraceContext
	nilTC.AddSpan("x", 1) // no-op
	if nilTC.Spans() != nil {
		t.Fatal("nil trace context spans should be nil")
	}
	tc := &TraceContext{RequestID: "r1"}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tc.AddSpan("phase", 0.001)
			}
		}()
	}
	wg.Wait()
	if got := len(tc.Spans()); got != 400 {
		t.Fatalf("spans = %d, want 400", got)
	}
}

func TestRing(t *testing.T) {
	var nilRing *Ring
	nilRing.Add(Trace{}) // no-op
	if nilRing.Last(5) != nil || nilRing.Find("x") != nil {
		t.Fatal("nil ring should return nil")
	}

	r := NewRing(4)
	if got := r.Last(10); len(got) != 0 {
		t.Fatalf("empty ring Last = %d traces", len(got))
	}
	for i := 0; i < 6; i++ {
		r.Add(Trace{RequestID: "req", Status: i})
	}
	last := r.Last(10)
	if len(last) != 4 {
		t.Fatalf("ring holds %d, want 4", len(last))
	}
	if last[0].Status != 5 || last[3].Status != 2 {
		t.Fatalf("ring order wrong: first=%d last=%d", last[0].Status, last[3].Status)
	}
	if got := r.Find("req"); len(got) != 4 {
		t.Fatalf("Find returned %d, want 4", len(got))
	}
	if got := r.Find("absent"); got != nil {
		t.Fatalf("Find(absent) = %v", got)
	}
	if NewRing(0) == nil {
		t.Fatal("NewRing(0) should default size")
	}
}

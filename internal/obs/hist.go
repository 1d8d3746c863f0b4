// Package obs is colord's low-overhead observability core: lock-free
// fixed-bucket latency histograms, labelled counters, families read
// from their owner at scrape time, a Prometheus text-format writer,
// and bounded request tracing (request IDs + an in-memory span ring).
// Everything is allocation-light on the hot path — an Observe is a
// bucket search plus three atomic adds — and every handle is nil-safe,
// so call sites never branch on whether instrumentation is enabled.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// defaultLatencyBounds spans ~100µs to ~13s in log-spaced (×2) steps:
// 0.0001·2^k seconds for k = 0..17, plus the implicit +Inf overflow
// bucket. Fine enough to separate a 200µs binary read from a 1ms JSON
// one, wide enough to capture a multi-second cold coloring.
var defaultLatencyBounds = func() []float64 {
	b := make([]float64, 18)
	v := 0.0001
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// DefaultLatencyBounds returns (a copy of) the default log-spaced
// latency bucket upper bounds in seconds.
func DefaultLatencyBounds() []float64 {
	out := make([]float64, len(defaultLatencyBounds))
	copy(out, defaultLatencyBounds)
	return out
}

// Histogram is a lock-free fixed-bucket histogram. Concurrent
// Observes are safe and never block; Snapshot is safe concurrently
// with Observes (it may tear between count and buckets by a handful
// of in-flight observations, which is fine for monitoring). A nil
// *Histogram ignores observations, so callers never need to guard.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; bucket i counts v <= bounds[i]
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds-scaled seconds (1e9 units)
}

// NewHistogram builds a histogram with the given sorted upper bounds
// (seconds). nil bounds selects the default latency buckets. The
// +Inf overflow bucket is implicit.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = defaultLatencyBounds
	}
	h := &Histogram{bounds: bounds}
	h.buckets = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records a duration.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveSeconds(d.Seconds())
}

// ObserveSeconds records a value in seconds (or any unit matching the
// histogram's bounds). Nil-safe and lock-free.
func (h *Histogram) ObserveSeconds(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(v * 1e9))
}

// Snapshot captures the current state as plain values.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     float64(h.sum.Load()) / 1e9,
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram:
// per-bucket (non-cumulative) counts, total count, and sum of
// observed values in seconds. Buckets has len(Bounds)+1 entries; the
// last is the +Inf overflow bucket. Snapshots are mergeable and
// subtractable, which is how colorload turns two scrapes into the
// latency distribution of just the run in between.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// Sub returns s − prev bucketwise (the distribution of observations
// made after prev was taken). Mismatched shapes return s unchanged.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Buckets) != len(s.Buckets) {
		return s
	}
	out := HistogramSnapshot{
		Count:   s.Count - prev.Count,
		Sum:     s.Sum - prev.Sum,
		Bounds:  s.Bounds,
		Buckets: make([]int64, len(s.Buckets)),
	}
	for i := range s.Buckets {
		out.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
	}
	return out
}

// mergeMismatches counts Merge calls over two non-empty snapshots with
// different bucket layouts — a schema skew (e.g. nodes on different
// builds aggregating cluster metrics) that would otherwise silently
// drop one side's observations. Exposed via MergeMismatches so the
// /metrics document can surface it.
var mergeMismatches atomic.Int64

// MergeMismatches reports how many histogram merges were dropped
// because the two snapshots' bucket layouts disagreed.
func MergeMismatches() int64 { return mergeMismatches.Load() }

// CountMergeMismatch counts a snapshot a caller left out of a merge
// because it is not Valid, the way Merge counts a layout mismatch.
func CountMergeMismatch() { mergeMismatches.Add(1) }

// Merge returns the bucketwise sum of s and o (for aggregating the
// same metric across label series or nodes). An empty side is an
// identity, not a mismatch; two non-empty snapshots with different
// bucket layouts cannot be summed — the receiver wins and the drop is
// counted in MergeMismatches.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if len(o.Buckets) != len(s.Buckets) {
		if len(s.Buckets) == 0 {
			return o
		}
		if len(o.Buckets) != 0 {
			mergeMismatches.Add(1)
		}
		return s
	}
	out := HistogramSnapshot{
		Count:   s.Count + o.Count,
		Sum:     s.Sum + o.Sum,
		Bounds:  s.Bounds,
		Buckets: make([]int64, len(s.Buckets)),
	}
	for i := range s.Buckets {
		out.Buckets[i] = s.Buckets[i] + o.Buckets[i]
	}
	return out
}

// Valid reports whether the snapshot has a finite bound and one bucket
// per bound plus the +Inf overflow bucket, so that its quantiles are
// defined. A snapshot decoded from another process's document may not.
func (s HistogramSnapshot) Valid() bool {
	return len(s.Bounds) > 0 && len(s.Buckets) == len(s.Bounds)+1
}

// Quantile estimates the q-quantile (0 < q <= 1) in seconds by linear
// interpolation inside the bucket holding the target rank. Values in
// the +Inf bucket report the largest finite bound. Returns NaN on an
// empty snapshot and on one that is not Valid.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || !s.Valid() {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) { // overflow bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

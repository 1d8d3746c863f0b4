// Package sortutil provides the linear-time integer sorts the paper's
// optimizations rely on: counting sort (used to order the batch R by
// residual degree, §V-B), LSD radix sort (used for edge-list construction
// and tried as an alternative R sort, §V-B), and a comparison quicksort
// fallback — the three algorithms §V-B reports experimenting with.
package sortutil

import (
	"sort"

	"repro/internal/par"
)

// CountingSortByKey stably sorts items so that key(items[i]) is
// non-decreasing. Keys must lie in [0, keyBound). It runs in
// O(len(items) + keyBound) time and is the linear-time integer sort used to
// order R within an ADG iteration (§V-B).
func CountingSortByKey(items []uint32, keyBound int, key func(v uint32) int) {
	n := len(items)
	if n <= 1 {
		return
	}
	if keyBound < 1 {
		keyBound = 1
	}
	counts := make([]int32, keyBound)
	for _, v := range items {
		counts[key(v)]++
	}
	offsets := make([]int64, keyBound+1)
	par.PrefixSumInt32(1, counts, offsets)
	out := make([]uint32, n)
	for _, v := range items {
		k := key(v)
		out[offsets[k]] = v
		offsets[k]++
	}
	copy(items, out)
}

// RadixSortUint64 sorts keys in place using an 8-bit LSD radix sort,
// skipping passes whose byte is constant across all keys.
func RadixSortUint64(keys []uint64) {
	n := len(keys)
	if n <= 1 {
		return
	}
	buf := make([]uint64, n)
	src, dst := keys, buf
	for shift := uint(0); shift < 64; shift += 8 {
		var counts [257]int64
		lo, hi := uint64(255), uint64(0)
		for _, k := range src {
			b := (k >> shift) & 255
			counts[b+1]++
			if b < lo {
				lo = b
			}
			if b > hi {
				hi = b
			}
		}
		if lo == hi {
			continue // constant byte: pass is a no-op
		}
		for i := 1; i < 257; i++ {
			counts[i] += counts[i-1]
		}
		for _, k := range src {
			b := (k >> shift) & 255
			dst[counts[b]] = k
			counts[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// RadixSortPairs sorts the parallel arrays (keys, vals) by keys using an
// 8-bit LSD radix sort. len(keys) must equal len(vals). The sort is stable.
func RadixSortPairs(keys []uint64, vals []uint32) {
	n := len(keys)
	if n != len(vals) {
		panic("sortutil: RadixSortPairs length mismatch")
	}
	if n <= 1 {
		return
	}
	kbuf := make([]uint64, n)
	vbuf := make([]uint32, n)
	ksrc, kdst := keys, kbuf
	vsrc, vdst := vals, vbuf
	for shift := uint(0); shift < 64; shift += 8 {
		var counts [257]int64
		lo, hi := uint64(255), uint64(0)
		for _, k := range ksrc {
			b := (k >> shift) & 255
			counts[b+1]++
			if b < lo {
				lo = b
			}
			if b > hi {
				hi = b
			}
		}
		if lo == hi {
			continue
		}
		for i := 1; i < 257; i++ {
			counts[i] += counts[i-1]
		}
		for i, k := range ksrc {
			b := (k >> shift) & 255
			kdst[counts[b]] = k
			vdst[counts[b]] = vsrc[i]
			counts[b]++
		}
		ksrc, kdst = kdst, ksrc
		vsrc, vdst = vdst, vsrc
	}
	if &ksrc[0] != &keys[0] {
		copy(keys, ksrc)
		copy(vals, vsrc)
	}
}

// QuickSortByKey sorts items by key using the stdlib comparison sort — the
// quicksort alternative of §V-B. Unlike CountingSortByKey it needs no key
// bound; it is O(n log n).
func QuickSortByKey(items []uint32, key func(v uint32) int) {
	sort.Slice(items, func(i, j int) bool {
		ki, kj := key(items[i]), key(items[j])
		if ki != kj {
			return ki < kj
		}
		return items[i] < items[j]
	})
}

// ParallelRadixSortUint64 sorts keys using p workers: the slice is split
// into p blocks, each radix-sorted independently, then merged pairwise.
// For the sizes used in graph building this is a practical parallel sort
// with O(n log p) merge work.
func ParallelRadixSortUint64(p int, keys []uint64) {
	n := len(keys)
	if n < 1<<12 || p <= 1 {
		RadixSortUint64(keys)
		return
	}
	if p > 64 {
		p = 64
	}
	chunk := (n + p - 1) / p
	type block struct{ lo, hi int }
	var blocks []block
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		blocks = append(blocks, block{lo, hi})
	}
	par.For(p, len(blocks), func(i int) {
		RadixSortUint64(keys[blocks[i].lo:blocks[i].hi])
	})
	// Pairwise merge rounds.
	buf := make([]uint64, n)
	for len(blocks) > 1 {
		var next []block
		pairs := len(blocks) / 2
		par.For(p, pairs, func(i int) {
			a, b := blocks[2*i], blocks[2*i+1]
			mergeUint64(keys[a.lo:a.hi], keys[b.lo:b.hi], buf[a.lo:b.hi])
			copy(keys[a.lo:b.hi], buf[a.lo:b.hi])
		})
		for i := 0; i < pairs; i++ {
			next = append(next, block{blocks[2*i].lo, blocks[2*i+1].hi})
		}
		if len(blocks)%2 == 1 {
			next = append(next, blocks[len(blocks)-1])
		}
		blocks = next
	}
}

func mergeUint64(a, b, out []uint64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// IsSortedUint64 reports whether keys is non-decreasing.
func IsSortedUint64(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return false
		}
	}
	return true
}

// MedianOfInt32 returns the lower median of values (the ⌈k/2⌉-smallest for
// k values) without fully sorting: quickselect on a copy, so values is
// left as it was. Used by ADG-M (§V-D).
func MedianOfInt32(values []int32) int32 {
	n := len(values)
	if n == 0 {
		panic("sortutil: median of empty slice")
	}
	k := (n - 1) / 2 // lower median index
	tmp := make([]int32, n)
	copy(tmp, values)
	return quickselect(tmp, k)
}

// quickselect returns the k-th smallest (0-based) element of a, permuting a.
func quickselect(a []int32, k int) int32 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median-of-three pivot for resilience against sorted inputs.
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return a[k]
		}
	}
	return a[lo]
}

// Package bitset provides the dense bitmaps the paper's algorithms use:
// the n-bit active-vertex sets U and R of ADG (§III "Design Details") and
// the per-vertex forbidden-color bitmaps Bv of DEC-ADG (Algorithm 4).
//
// Two flavors are provided. Set is a plain (single-writer or read-only)
// bitmap with O(1) set/test and word-level population counting. Atomic is a
// concurrently writable bitmap built on atomic OR-style CAS loops, matching
// the CRCW-setting assumption of concurrent writes (§II-C).
package bitset

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Set is a fixed-capacity dense bitmap. The zero value is an empty bitmap
// of capacity 0; use New to allocate capacity.
type Set struct {
	words []uint64
	n     int
}

// New returns a bitmap able to hold bits 0..n-1, all initially clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromWords returns a bitmap of capacity n whose bits live in the
// caller's words, which must hold at least (n+63)/64 of them, with every
// bit at position n or above clear. The bitmap starts with the bits the
// words hold and writes through to them. Carving many bitmaps out of one
// word slice this way costs no allocation per bitmap.
func FromWords(words []uint64, n int) Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	nw := (n + wordBits - 1) / wordBits
	return Set{words: words[:nw:nw], n: n}
}

// Len returns the bitmap capacity in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit in [0, Len).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trimTail()
}

// trimTail clears bits at positions >= n in the last word.
func (s *Set) trimTail() {
	if tail := uint(s.n) % wordBits; tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << tail) - 1
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// NextClear returns the smallest index >= from whose bit is clear, or -1 if
// every bit in [from, Len) is set. This is the "smallest available color"
// query used by greedy color selection over a forbidden bitmap.
func (s *Set) NextClear(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return -1
	}
	wi := from / wordBits
	// Mask off bits below `from` in the first word by treating them as set.
	w := s.words[wi] | ((1 << (uint(from) % wordBits)) - 1)
	for {
		inv := ^w
		if inv != 0 {
			i := wi*wordBits + bits.TrailingZeros64(inv)
			if i >= s.n {
				return -1
			}
			return i
		}
		wi++
		if wi >= len(s.words) {
			return -1
		}
		w = s.words[wi]
	}
}

// ForEach calls fn for every set bit in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Or sets s to the union s | o. Both must have identical capacity.
func (s *Set) Or(o *Set) {
	if s.n != o.n {
		panic("bitset: Or capacity mismatch")
	}
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// AndNot clears in s every bit set in o (s = s &^ o).
func (s *Set) AndNot(o *Set) {
	if s.n != o.n {
		panic("bitset: AndNot capacity mismatch")
	}
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// Equal reports whether s and o have the same capacity and contents.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Atomic is a dense bitmap safe for concurrent Set/Test from multiple
// goroutines (the concurrent-write machine model, §II-C). Clear operations
// are not concurrent-safe with Set and are meant for quiescent phases.
type Atomic struct {
	words []uint64
	n     int
}

// NewAtomic returns an atomic bitmap holding bits 0..n-1.
func NewAtomic(n int) *Atomic {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Atomic{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity in bits.
func (a *Atomic) Len() int { return a.n }

// Set atomically sets bit i.
func (a *Atomic) Set(i int) {
	addr := &a.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return
		}
	}
}

// TrySet atomically sets bit i and reports whether this call changed it
// from clear to set (i.e., the caller "won" the bit).
func (a *Atomic) TrySet(i int) bool {
	addr := &a.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// Test atomically reads bit i.
func (a *Atomic) Test(i int) bool {
	return atomic.LoadUint64(&a.words[i/wordBits])&(1<<(uint(i)%wordBits)) != 0
}

// Clear clears bit i. Not safe concurrently with Set on the same word.
func (a *Atomic) Clear(i int) {
	addr := &a.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := atomic.LoadUint64(addr)
		if atomic.CompareAndSwapUint64(addr, old, old&^mask) {
			return
		}
	}
}

// Count returns the number of set bits. Only a consistent snapshot if no
// concurrent writers are active.
func (a *Atomic) Count() int {
	c := 0
	for i := range a.words {
		c += bits.OnesCount64(atomic.LoadUint64(&a.words[i]))
	}
	return c
}

// Reset clears all bits. Must not race with concurrent writers.
func (a *Atomic) Reset() {
	for i := range a.words {
		atomic.StoreUint64(&a.words[i], 0)
	}
}
